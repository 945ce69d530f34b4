//! Wire encoding for rules and tuples.
//!
//! LBTrust principals exchange *rules* (facts are bodyless rules, §4.1 of
//! the paper). The wire format is the canonical text of the Datalog
//! dialect itself: deterministic, self-describing, and — crucially for
//! the authentication schemes — the exact byte string over which
//! signatures and MACs are computed. A message is one `export` tuple:
//! `export[<to>](<from>, <rule-quote>, <signature-bytes>)`.
//!
//! # The five envelopes
//!
//! Each packet is one fact of the dialect, and what surrounds its
//! payload — the *envelope* — is written and read here by hand, byte for
//! byte as the dialect's printer would spell that fact:
//!
//! ```text
//! export     := "export["     name "](" name ",[| " rule " |],#" hex ")."
//! revoke     := "revoke["     name "](" name ",\"" digest "\",#" hex ")."
//! revgossip  := "revgossip["  name "](" name ",\"" digest "\",#" hex ")."
//! revsummary := "revsummary[" name "](" name "," name "," string ")."
//! revpull    := "revpull["    name "](" name "," name ")."
//! ```
//!
//! The first `name` is the addressee, the second the sender, the third
//! the issuer whose revocations are summarised or asked for.
//!
//! **Canonical** means two things. For the envelope: one spelling — no
//! blank, no comment, hex in lower case, a string escaped the one way
//! the printer escapes it — so [`encode_packet`] of what
//! [`decode_packet`] returns is the packet again, and anything else is a
//! [`WireError`] naming the byte it went wrong at. For the quoted `rule`
//! of an `export`: its `Display`, which is what [`rule_bytes`] signs and
//! what [`encode`] writes; a decoder takes any text the dialect's parser
//! reads as that one quote (a peer's own spacing, its `//` comments
//! ended by a newline), and the signature is checked over the *parsed*
//! rule's canonical bytes, never over the text received.
//!
//! Where each field is validated:
//!
//! | field | by | accepts |
//! |---|---|---|
//! | the kind before `[` | [`decode_packet`] | the five names above |
//! | `name` | [`is_principal_name`] | one lower-case identifier of the dialect, not `me` — the only names a `System` registers a principal under |
//! | `hex`, found from the packet's end | [`from_hex`], lower case only | an even run of digits, `#` alone for a plaintext `says` |
//! | `digest` | the same | exactly 32 bytes |
//! | `rule`, the slice between the sender's `,` and the `,#` | [`parse_quoted_rule`] | one `[| … |]` and nothing around it, nested at most [`lbtrust_datalog::parser::MAX_NESTING`] deep |
//! | `string` | the dialect's lexer, then compared with its reprint | one canonical string literal |
//! | the signature itself | not here: `exp3`'s `rsaverify` / `hmacverify`, or the certificate store | — |

use lbtrust_crypto::crc32::crc32;
use lbtrust_crypto::sha256::Sha256;
use lbtrust_datalog::ast::Rule;
use lbtrust_datalog::lexer::{is_principal_name, lex, Token};
#[cfg(test)]
use lbtrust_datalog::parse_rule;
use lbtrust_datalog::{hex, parse_quoted_rule, Symbol, Value};
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

/// A 32-byte content address over canonical wire bytes.
pub type WireDigest = [u8; 32];

/// SHA-256 content digest of canonical wire bytes — the key under which
/// the certificate store addresses verified credentials.
pub fn digest_bytes(bytes: &[u8]) -> WireDigest {
    Sha256::digest(bytes)
}

/// Lowercase hex rendering of a digest (or any byte string).
pub fn to_hex(bytes: &[u8]) -> String {
    Hex(bytes).to_string()
}

/// Bytes that print as their lowercase hex.
struct Hex<'a>(&'a [u8]);

impl fmt::Display for Hex<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        hex::write_hex(f, self.0)
    }
}

/// Parses lowercase/uppercase hex back into bytes: `None` unless `s` is
/// an even number of hex digits and nothing else (a sign, or a character
/// wider than a byte, is not a digit wherever it falls).
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    hex::from_hex(s.as_bytes())
}

// ---- record framing (durable logs) ----------------------------------------
//
// The certificate store's segment log reuses the canonical wire
// encoding for its payloads; the framing below adds what a durable,
// append-only file needs on top of it: a length prefix so records can
// be scanned without parsing, and a CRC-32 so a torn write or flipped
// bit at the tail is detected and replay stops cleanly at the last
// valid record.
//
// Layout of one frame (all integers little-endian):
//
// ```text
// [len: u32] [kind: u8] [payload: len-1 bytes] [crc32: u32]
// ```
//
// `len` counts the kind byte plus the payload; the CRC covers the same
// span (kind + payload).

/// Bytes of framing overhead per record (`len` prefix + CRC suffix).
pub const FRAME_OVERHEAD: usize = 8;

/// Upper bound on one frame's body (kind + payload); a corrupt length
/// prefix larger than this is treated as end-of-log rather than an
/// instruction to scan gigabytes.
pub const MAX_FRAME_BODY: usize = 16 * 1024 * 1024;

/// Frames one record: length prefix, kind tag, payload, CRC-32 trailer.
pub fn frame_record(kind: u8, payload: &[u8]) -> Vec<u8> {
    let body_len = payload.len() + 1;
    let mut out = Vec::with_capacity(body_len + FRAME_OVERHEAD);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.push(kind);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(&out[4..]).to_le_bytes());
    out
}

/// Reads the frame starting at `offset`, returning `(kind, payload,
/// next_offset)`. Returns `None` when the buffer ends (cleanly or with
/// a truncated frame), the length prefix is implausible, or the CRC
/// does not match — replay treats all of these as end-of-log.
pub fn read_frame(buf: &[u8], offset: usize) -> Option<(u8, &[u8], usize)> {
    let rest = buf.get(offset..)?;
    if rest.len() < 4 {
        return None;
    }
    let body_len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
    if body_len == 0 || body_len > MAX_FRAME_BODY {
        return None;
    }
    let body = rest.get(4..4 + body_len)?;
    let crc_bytes = rest.get(4 + body_len..4 + body_len + 4)?;
    let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    if crc32(body) != stored {
        return None;
    }
    Some((body[0], &body[1..], offset + 4 + body_len + 4))
}

// ---- whole-file metadata frames (manifests, checkpoints) -------------------
//
// The segmented certificate log keeps small metadata files beside its
// record segments: a MANIFEST naming the live segment set and the
// latest checkpoint, and an audit segment of folded lifecycle entries.
// These reuse the record framing above, but with a stricter contract —
// a metadata file is exactly one frame, so a torn or trailing-garbage
// file is detected as a whole rather than salvaged record-by-record.

/// Frame kind of a segment-set manifest file.
pub const META_MANIFEST: u8 = 0xA0;
/// Frame kind of a checkpoint header (inside a checkpoint record's
/// nested frame sequence).
pub const META_CHECKPOINT: u8 = 0xA1;

/// Frames a whole metadata file: one CRC-checked record that must span
/// the file exactly (see [`read_meta_file`]).
pub fn frame_meta_file(kind: u8, payload: &[u8]) -> Vec<u8> {
    frame_record(kind, payload)
}

/// Reads a metadata file produced by [`frame_meta_file`]: the buffer
/// must hold exactly one intact frame of the expected `kind`. Any
/// deviation — wrong kind, bad CRC, trailing bytes — yields `None`, so
/// a half-written manifest is rejected as a whole and the caller falls
/// back to the previous generation.
pub fn read_meta_file(kind: u8, bytes: &[u8]) -> Option<&[u8]> {
    let (k, payload, next) = read_frame(bytes, 0)?;
    (k == kind && next == bytes.len()).then_some(payload)
}

/// Scans a buffer of concatenated frames (a checkpoint record's nested
/// sequence), yielding `(kind, payload)` pairs. Returns `None` unless
/// every byte is covered by intact frames — a checkpoint is trusted
/// state, so partial decode is refused rather than salvaged.
pub fn read_frame_sequence(bytes: &[u8]) -> Option<Vec<(u8, &[u8])>> {
    let mut out = Vec::new();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let (kind, payload, next) = read_frame(bytes, offset)?;
        out.push((kind, payload));
        offset = next;
    }
    Some(out)
}

/// The byte string a revocation signature covers: issuer name plus the
/// hex digest of the certificate being withdrawn.
pub fn revoke_signing_bytes(issuer: Symbol, digest: &WireDigest) -> Vec<u8> {
    format!("lbtrust-revoke:{issuer}:{}", to_hex(digest)).into_bytes()
}

/// Wire decode failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Description.
    pub message: String,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode error: {}", self.message)
    }
}

impl std::error::Error for WireError {}

/// A decoded LBTrust message: an exported rule with authentication data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireMessage {
    /// The sending principal.
    pub from: Symbol,
    /// The receiving principal.
    pub to: Symbol,
    /// The communicated rule.
    pub rule: Arc<Rule>,
    /// Authentication bytes (empty for plaintext transfer).
    pub auth: Vec<u8>,
}

/// A revocation notice on the wire: `from` withdraws the certificate
/// addressed by `digest`; `auth` is `from`'s signature over
/// [`revoke_signing_bytes`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RevokeMessage {
    /// The revoking (issuing) principal.
    pub from: Symbol,
    /// The receiving principal.
    pub to: Symbol,
    /// Content address of the certificate being withdrawn.
    pub digest: WireDigest,
    /// Signature over [`revoke_signing_bytes`].
    pub auth: Vec<u8>,
}

/// An anti-entropy revocation-summary advertisement: `from` tells `to`
/// a compact fingerprint of every revocation it holds signed by
/// `issuer`. Fingerprints are opaque at the wire level — receivers
/// only ever compare them for equality (a mismatch triggers a
/// [`RevPullMessage`]), so no authentication is carried: a forged
/// summary can at worst provoke a redundant pull or suppress one
/// round's repair, and the next round re-advertises.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RevSummaryMessage {
    /// The advertising principal.
    pub from: Symbol,
    /// The receiving principal.
    pub to: Symbol,
    /// Whose revocations the fingerprint covers (the signer).
    pub issuer: Symbol,
    /// Digest-set fingerprint (hex), compared only for equality.
    pub fingerprint: String,
}

/// An anti-entropy pull request: `from` asks `to` to send every signed
/// revocation it holds issued by `issuer` (the responder replies with
/// [`WirePacket::RevGossip`] frames, which carry the issuer's own
/// signatures — the pull itself needs no authentication).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RevPullMessage {
    /// The requesting principal.
    pub from: Symbol,
    /// The responding principal.
    pub to: Symbol,
    /// Whose revocations are requested.
    pub issuer: Symbol,
}

/// Everything that travels between principals: exported rules and
/// revocation notices share one self-describing canonical-text format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WirePacket {
    /// An exported, authenticated rule (`export[to](from, R, S)`).
    Export(WireMessage),
    /// A certificate revocation (`revoke[to](from, "digest-hex", S)`).
    Revoke(RevokeMessage),
    /// A revocation-summary advertisement
    /// (`revsummary[to](from, issuer, "fp-hex")`).
    RevSummary(RevSummaryMessage),
    /// A pull request for an issuer's signed revocations
    /// (`revpull[to](from, issuer)`).
    RevPull(RevPullMessage),
    /// A revocation object relayed by the gossip repair layer
    /// (`revgossip[to](from, "digest-hex", S)`). Same payload as
    /// [`WirePacket::Revoke`], but receivers apply it tolerantly: a
    /// relayed object whose signer is not the target certificate's
    /// issuer is remembered as inert rather than rejected, so
    /// anti-entropy converges on the full set of revocation objects.
    RevGossip(RevokeMessage),
}

/// The canonical byte string of a rule — what gets signed/MACed.
pub fn rule_bytes(rule: &Rule) -> Vec<u8> {
    rule.to_string().into_bytes()
}

/// Opens an envelope: `kind[to](from`, with `room` for what follows.
fn open_envelope(kind: &str, to: Symbol, from: Symbol, room: usize) -> String {
    let (to, from) = (to.as_str(), from.as_str());
    let mut out = String::with_capacity(kind.len() + to.len() + from.len() + 3 + room);
    for part in [kind, "[", to, "](", from] {
        out.push_str(part);
    }
    out
}

/// Writes the rest of an envelope and hands over its bytes.
fn close_envelope(mut out: String, rest: fmt::Arguments<'_>) -> Vec<u8> {
    out.write_fmt(rest).expect("a String takes every write");
    out.into_bytes()
}

/// Encodes an `export` packet from its parts, borrowed: what
/// [`encode`] does for a [`WireMessage`], for a sender that holds the
/// rule and the signature inside a tuple.
pub fn encode_export(to: Symbol, from: Symbol, rule: &Rule, auth: &[u8]) -> Vec<u8> {
    let out = open_envelope("export", to, from, 64 + 2 * auth.len());
    close_envelope(out, format_args!(",[| {rule} |],#{}).", Hex(auth)))
}

/// Encodes a message as the canonical text of an `export` fact.
pub fn encode(msg: &WireMessage) -> Vec<u8> {
    encode_export(msg.to, msg.from, &msg.rule, &msg.auth)
}

/// Encodes a revocation payload under the given kind (`revoke` for the
/// eager broadcast, `revgossip` for the anti-entropy relay — identical
/// layout).
fn encode_revoke_as(kind: &str, msg: &RevokeMessage) -> Vec<u8> {
    let out = open_envelope(kind, msg.to, msg.from, 72 + 2 * msg.auth.len());
    let (digest, auth) = (Hex(&msg.digest), Hex(&msg.auth));
    close_envelope(out, format_args!(",\"{digest}\",#{auth})."))
}

/// Encodes a revocation notice as the canonical text of a `revoke` fact.
pub fn encode_revoke(msg: &RevokeMessage) -> Vec<u8> {
    encode_revoke_as("revoke", msg)
}

/// Encodes a summary advertisement as the canonical text of a
/// `revsummary` fact.
pub fn encode_revsummary(msg: &RevSummaryMessage) -> Vec<u8> {
    let out = open_envelope("revsummary", msg.to, msg.from, 80);
    let fingerprint = Value::str(&msg.fingerprint);
    close_envelope(out, format_args!(",{},{fingerprint}).", msg.issuer))
}

/// Encodes a pull request as the canonical text of a `revpull` fact.
pub fn encode_revpull(msg: &RevPullMessage) -> Vec<u8> {
    let out = open_envelope("revpull", msg.to, msg.from, 16);
    close_envelope(out, format_args!(",{}).", msg.issuer))
}

/// Encodes a gossiped revocation object as a `revgossip` fact (same
/// argument structure as `revoke`).
pub fn encode_revgossip(msg: &RevokeMessage) -> Vec<u8> {
    encode_revoke_as("revgossip", msg)
}

/// Encodes either packet variant.
pub fn encode_packet(packet: &WirePacket) -> Vec<u8> {
    match packet {
        WirePacket::Export(m) => encode(m),
        WirePacket::Revoke(m) => encode_revoke(m),
        WirePacket::RevSummary(m) => encode_revsummary(m),
        WirePacket::RevPull(m) => encode_revpull(m),
        WirePacket::RevGossip(m) => encode_revgossip(m),
    }
}

fn malformed<T>(at: usize, what: impl fmt::Display) -> Result<T, WireError> {
    Err(WireError {
        message: format!("{what} at byte {at}"),
    })
}

/// Bytes of an even run of hex digits, none of them upper case.
fn lower_hex(digits: &str) -> Option<Vec<u8>> {
    let upper = digits.bytes().any(|b| b.is_ascii_uppercase());
    hex::from_hex(digits.as_bytes()).filter(|_| !upper)
}

/// A decoder's place in a packet's text. `pos` only ever steps over
/// ASCII, so it is always a character boundary.
struct Envelope<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Envelope<'a> {
    fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    /// The text from here to the next `end`, which is stepped over.
    fn until(&mut self, end: char) -> Result<&'a str, WireError> {
        let rest = self.rest();
        let Some(len) = rest.find(end) else {
            return malformed(self.pos, format_args!("expected '{end}' after here"));
        };
        self.pos += len + end.len_utf8();
        Ok(&rest[..len])
    }

    /// A principal's name running up to `end`.
    fn name(&mut self, end: char) -> Result<Symbol, WireError> {
        let at = self.pos;
        let name = self.until(end)?;
        if !is_principal_name(name) {
            return malformed(at, "expected a principal's name");
        }
        Ok(Symbol::intern(name))
    }

    /// The rest of the packet less the `tail` it must end with.
    fn until_tail(&self, tail: &str) -> Result<&'a str, WireError> {
        match self.rest().strip_suffix(tail) {
            Some(body) => Ok(body),
            None => malformed(
                self.text.len(),
                format_args!("expected '{tail}' to end here"),
            ),
        }
    }

    /// The field between here and the `,#hex).` every signed packet
    /// ends with, and the bytes of the hex — found from the end, because
    /// hex holds no `#` and a quoted rule may hold `,#`, `).` and `|]`.
    fn signed_field(&self) -> Result<(&'a str, Vec<u8>), WireError> {
        let body = self.until_tail(").")?;
        let cut = body
            .rfind('#')
            .and_then(|hash| Some((body[..hash].strip_suffix(',')?, &body[hash + 1..])));
        let Some((field, digits)) = cut else {
            return malformed(self.pos, "expected ',#' and a signature after here");
        };
        match lower_hex(digits) {
            Some(auth) => Ok((field, auth)),
            None => malformed(
                self.pos + field.len() + 2,
                "expected an even run of lowercase hex digits",
            ),
        }
    }
}

/// Decodes a packet produced by [`encode_packet`] (or plain [`encode`]),
/// dispatching on the kind before the `[`. Anything but the canonical
/// envelope is a [`WireError`] naming the byte it went wrong at.
pub fn decode_packet(bytes: &[u8]) -> Result<WirePacket, WireError> {
    let text = match std::str::from_utf8(bytes) {
        Ok(text) => text,
        Err(e) => return malformed(e.valid_up_to(), "invalid utf-8"),
    };
    let mut at = Envelope { text, pos: 0 };
    let kind = at.until('[')?;
    let to = at.name(']')?;
    if !at.rest().starts_with('(') {
        return malformed(at.pos, "expected '('");
    }
    at.pos += 1;
    let from = at.name(',')?;
    Ok(match kind {
        "export" => {
            let (quote, auth) = at.signed_field()?;
            let rule = parse_quoted_rule(quote).or_else(|e| malformed(at.pos, e))?;
            let rule = Arc::new(rule);
            WirePacket::Export(WireMessage {
                from,
                to,
                rule,
                auth,
            })
        }
        "revoke" | "revgossip" => {
            let (quoted, auth) = at.signed_field()?;
            let digits = quoted.strip_prefix('"').and_then(|d| d.strip_suffix('"'));
            let digest = digits.and_then(lower_hex).and_then(|d| d.try_into().ok());
            let Some(digest) = digest else {
                return malformed(
                    at.pos,
                    "expected a digest, 64 lowercase hex digits in quotes",
                );
            };
            let msg = RevokeMessage {
                from,
                to,
                digest,
                auth,
            };
            if kind == "revoke" {
                WirePacket::Revoke(msg)
            } else {
                WirePacket::RevGossip(msg)
            }
        }
        "revsummary" => {
            let issuer = at.name(',')?;
            let literal = at.until_tail(").")?;
            // One string literal, spelled the one way it prints.
            let fingerprint = match lex(literal).as_deref() {
                Ok([only]) => match &only.token {
                    Token::Str(s) if Value::str(s).to_string() == literal => s.clone(),
                    _ => return malformed(at.pos, "expected a canonical string literal"),
                },
                _ => return malformed(at.pos, "expected a canonical string literal"),
            };
            WirePacket::RevSummary(RevSummaryMessage {
                from,
                to,
                issuer,
                fingerprint,
            })
        }
        "revpull" => {
            let issuer = at.name(')')?;
            if at.rest() != "." {
                return malformed(at.pos, "expected '.' to end here");
            }
            WirePacket::RevPull(RevPullMessage { from, to, issuer })
        }
        _ => {
            return malformed(
                0,
                "expected export, revoke, revgossip, revsummary or revpull",
            )
        }
    })
}

/// Decodes a message produced by [`encode`]: an `export` packet.
pub fn decode(bytes: &[u8]) -> Result<WireMessage, WireError> {
    match decode_packet(bytes)? {
        WirePacket::Export(msg) => Ok(msg),
        _ => malformed(0, "expected export"),
    }
}

/// The codec this module had until the envelope was written by hand —
/// build the fact, print it; parse the whole text, match the fact —
/// kept verbatim as what [`codec_model`]'s properties compare against.
#[cfg(test)]
mod model {
    use super::*;
    use lbtrust_datalog::ast::{Atom, Term};

    /// Encodes a message as the canonical text of an `export` fact.
    pub fn encode(msg: &WireMessage) -> Vec<u8> {
        let fact = Rule::fact(Atom {
            pred: lbtrust_datalog::ast::PredRef::Name(Symbol::intern("export")),
            key_args: vec![Term::Val(Value::Sym(msg.to))],
            args: vec![
                Term::Val(Value::Sym(msg.from)),
                Term::Val(Value::Quote(msg.rule.clone())),
                Term::Val(Value::bytes(&msg.auth)),
            ],
        });
        fact.to_string().into_bytes()
    }

    /// Encodes a revocation payload under the given predicate (`revoke`
    /// for the eager broadcast, `revgossip` for the anti-entropy relay —
    /// identical layout, decoded by the same [`revoke_from_atom`]).
    fn encode_revoke_as(pred: &str, msg: &RevokeMessage) -> Vec<u8> {
        let fact = Rule::fact(Atom {
            pred: lbtrust_datalog::ast::PredRef::Name(Symbol::intern(pred)),
            key_args: vec![Term::Val(Value::Sym(msg.to))],
            args: vec![
                Term::Val(Value::Sym(msg.from)),
                Term::Val(Value::str(&to_hex(&msg.digest))),
                Term::Val(Value::bytes(&msg.auth)),
            ],
        });
        fact.to_string().into_bytes()
    }

    /// Encodes a revocation notice as the canonical text of a `revoke` fact.
    pub fn encode_revoke(msg: &RevokeMessage) -> Vec<u8> {
        encode_revoke_as("revoke", msg)
    }

    /// Encodes a summary advertisement as the canonical text of a
    /// `revsummary` fact.
    pub fn encode_revsummary(msg: &RevSummaryMessage) -> Vec<u8> {
        let fact = Rule::fact(Atom {
            pred: lbtrust_datalog::ast::PredRef::Name(Symbol::intern("revsummary")),
            key_args: vec![Term::Val(Value::Sym(msg.to))],
            args: vec![
                Term::Val(Value::Sym(msg.from)),
                Term::Val(Value::Sym(msg.issuer)),
                Term::Val(Value::str(&msg.fingerprint)),
            ],
        });
        fact.to_string().into_bytes()
    }

    /// Encodes a pull request as the canonical text of a `revpull` fact.
    pub fn encode_revpull(msg: &RevPullMessage) -> Vec<u8> {
        let fact = Rule::fact(Atom {
            pred: lbtrust_datalog::ast::PredRef::Name(Symbol::intern("revpull")),
            key_args: vec![Term::Val(Value::Sym(msg.to))],
            args: vec![
                Term::Val(Value::Sym(msg.from)),
                Term::Val(Value::Sym(msg.issuer)),
            ],
        });
        fact.to_string().into_bytes()
    }

    /// Encodes a gossiped revocation object as a `revgossip` fact (same
    /// argument structure as `revoke`).
    pub fn encode_revgossip(msg: &RevokeMessage) -> Vec<u8> {
        encode_revoke_as("revgossip", msg)
    }

    /// Encodes either packet variant.
    pub fn encode_packet(packet: &WirePacket) -> Vec<u8> {
        match packet {
            WirePacket::Export(m) => encode(m),
            WirePacket::Revoke(m) => encode_revoke(m),
            WirePacket::RevSummary(m) => encode_revsummary(m),
            WirePacket::RevPull(m) => encode_revpull(m),
            WirePacket::RevGossip(m) => encode_revgossip(m),
        }
    }

    /// Decodes a packet produced by [`encode_packet`] (or plain [`encode`]),
    /// dispatching on the fact's predicate.
    pub fn decode_packet(bytes: &[u8]) -> Result<WirePacket, WireError> {
        let text = std::str::from_utf8(bytes).map_err(|e| WireError {
            message: format!("invalid utf-8: {e}"),
        })?;
        let fact = parse_rule(text).map_err(|e| WireError {
            message: format!("unparseable message: {e}"),
        })?;
        if fact.heads.len() != 1 || !fact.body.is_empty() {
            return Err(WireError {
                message: "message is not a single fact".into(),
            });
        }
        let head = &fact.heads[0];
        match head.pred.name().map(|s| s.as_str()) {
            Some("export") => Ok(WirePacket::Export(export_from_atom(head)?)),
            Some("revoke") => Ok(WirePacket::Revoke(revoke_from_atom(head)?)),
            Some("revsummary") => Ok(WirePacket::RevSummary(revsummary_from_atom(head)?)),
            Some("revpull") => Ok(WirePacket::RevPull(revpull_from_atom(head)?)),
            Some("revgossip") => Ok(WirePacket::RevGossip(revoke_from_atom(head)?)),
            _ => Err(WireError {
                message: format!("unexpected predicate in '{head}'"),
            }),
        }
    }

    /// Decodes a `revsummary[to](from, issuer, "fp-hex")` fact.
    fn revsummary_from_atom(head: &Atom) -> Result<RevSummaryMessage, WireError> {
        match (head.key_args.as_slice(), head.args.as_slice()) {
            (
                [Term::Val(Value::Sym(to))],
                [Term::Val(Value::Sym(from)), Term::Val(Value::Sym(issuer)), Term::Val(Value::Str(fp))],
            ) => Ok(RevSummaryMessage {
                from: *from,
                to: *to,
                issuer: *issuer,
                fingerprint: fp.to_string(),
            }),
            _ => Err(WireError {
                message: format!("malformed revsummary fact '{head}'"),
            }),
        }
    }

    /// Decodes a `revpull[to](from, issuer)` fact.
    fn revpull_from_atom(head: &Atom) -> Result<RevPullMessage, WireError> {
        match (head.key_args.as_slice(), head.args.as_slice()) {
            (
                [Term::Val(Value::Sym(to))],
                [Term::Val(Value::Sym(from)), Term::Val(Value::Sym(issuer))],
            ) => Ok(RevPullMessage {
                from: *from,
                to: *to,
                issuer: *issuer,
            }),
            _ => Err(WireError {
                message: format!("malformed revpull fact '{head}'"),
            }),
        }
    }

    /// Decodes a `revoke[to](from, "digest-hex", auth)` fact.
    fn revoke_from_atom(head: &Atom) -> Result<RevokeMessage, WireError> {
        let malformed = || WireError {
            message: format!("malformed revoke fact '{head}'"),
        };
        match (head.key_args.as_slice(), head.args.as_slice()) {
            (
                [Term::Val(Value::Sym(to))],
                [Term::Val(Value::Sym(from)), Term::Val(Value::Str(hex)), Term::Val(Value::Bytes(auth))],
            ) => {
                let raw = from_hex(hex).ok_or_else(malformed)?;
                let digest: WireDigest = raw.try_into().map_err(|_| malformed())?;
                Ok(RevokeMessage {
                    from: *from,
                    to: *to,
                    digest,
                    auth: auth.to_vec(),
                })
            }
            _ => Err(malformed()),
        }
    }

    /// Decodes a message produced by [`encode`].
    pub fn decode(bytes: &[u8]) -> Result<WireMessage, WireError> {
        let text = std::str::from_utf8(bytes).map_err(|e| WireError {
            message: format!("invalid utf-8: {e}"),
        })?;
        let fact = parse_rule(text).map_err(|e| WireError {
            message: format!("unparseable message: {e}"),
        })?;
        if fact.heads.len() != 1 || !fact.body.is_empty() {
            return Err(WireError {
                message: "message is not a single fact".into(),
            });
        }
        let head = &fact.heads[0];
        if head.pred.name().map(|s| s.as_str()) != Some("export") {
            return Err(WireError {
                message: format!("unexpected predicate in '{head}'"),
            });
        }
        export_from_atom(head)
    }

    /// Decodes the argument structure of an `export` fact.
    fn export_from_atom(head: &Atom) -> Result<WireMessage, WireError> {
        // The parser yields `Term::Quote` for quote literals; a programmatic
        // encode uses `Term::Val(Value::Quote)`. Accept both.
        fn as_quote(term: &Term) -> Option<Arc<Rule>> {
            match term {
                Term::Quote(r) => Some(r.clone()),
                Term::Val(Value::Quote(r)) => Some(r.clone()),
                _ => None,
            }
        }
        let (to, from, rule, auth) = match (head.key_args.as_slice(), head.args.as_slice()) {
            (
                [Term::Val(Value::Sym(to))],
                [Term::Val(Value::Sym(from)), quote, Term::Val(Value::Bytes(auth))],
            ) => {
                let Some(rule) = as_quote(quote) else {
                    return Err(WireError {
                        message: format!("expected a quoted rule in '{head}'"),
                    });
                };
                (*to, *from, rule, auth.to_vec())
            }
            _ => {
                return Err(WireError {
                    message: format!("malformed export fact '{head}'"),
                })
            }
        };
        Ok(WireMessage {
            from,
            to,
            rule,
            auth,
        })
    }
}

#[cfg(test)]
mod frame_tests {
    use super::*;

    #[test]
    fn frame_roundtrip_single_and_sequence() {
        let buf = frame_record(1, b"hello");
        let (kind, payload, next) = read_frame(&buf, 0).unwrap();
        assert_eq!(kind, 1);
        assert_eq!(payload, b"hello");
        assert_eq!(next, buf.len());

        let mut log = Vec::new();
        for (k, p) in [(1u8, &b"alpha"[..]), (2, b""), (3, b"gamma")] {
            log.extend_from_slice(&frame_record(k, p));
        }
        let mut offset = 0;
        let mut seen = Vec::new();
        while let Some((k, p, next)) = read_frame(&log, offset) {
            seen.push((k, p.to_vec()));
            offset = next;
        }
        assert_eq!(offset, log.len());
        assert_eq!(
            seen,
            vec![
                (1, b"alpha".to_vec()),
                (2, Vec::new()),
                (3, b"gamma".to_vec())
            ]
        );
    }

    #[test]
    fn truncated_tail_stops_cleanly() {
        let mut log = frame_record(1, b"first");
        let keep = log.len();
        log.extend_from_slice(&frame_record(2, b"second"));
        log.truncate(keep + 5); // tear the second frame mid-body
        let (_, payload, next) = read_frame(&log, 0).unwrap();
        assert_eq!(payload, b"first");
        assert!(
            read_frame(&log, next).is_none(),
            "torn frame must not parse"
        );
    }

    #[test]
    fn corrupted_frame_fails_crc() {
        let mut buf = frame_record(7, b"payload-bytes");
        let mid = buf.len() / 2;
        buf[mid] ^= 0x40;
        assert!(read_frame(&buf, 0).is_none());
    }

    #[test]
    fn meta_file_roundtrip_and_rejects() {
        let file = frame_meta_file(META_MANIFEST, b"segments:1,2\n");
        assert_eq!(
            read_meta_file(META_MANIFEST, &file).unwrap(),
            b"segments:1,2\n"
        );
        // Wrong kind.
        assert!(read_meta_file(META_CHECKPOINT, &file).is_none());
        // Trailing garbage after the frame: the whole file is rejected.
        let mut trailing = file.clone();
        trailing.push(0x00);
        assert!(read_meta_file(META_MANIFEST, &trailing).is_none());
        // A torn prefix is rejected too.
        assert!(read_meta_file(META_MANIFEST, &file[..file.len() - 2]).is_none());
        // A flipped bit fails the CRC.
        let mut corrupt = file.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x08;
        assert!(read_meta_file(META_MANIFEST, &corrupt).is_none());
    }

    #[test]
    fn frame_sequence_requires_full_coverage() {
        let mut buf = frame_record(1, b"a");
        buf.extend_from_slice(&frame_record(2, b"bb"));
        let frames = read_frame_sequence(&buf).unwrap();
        assert_eq!(frames, vec![(1u8, &b"a"[..]), (2u8, &b"bb"[..])]);
        assert_eq!(read_frame_sequence(b"").unwrap(), vec![]);
        // A torn tail poisons the whole sequence.
        let torn = &buf[..buf.len() - 3];
        assert!(read_frame_sequence(torn).is_none());
    }

    #[test]
    fn implausible_length_prefix_rejected() {
        let mut buf = frame_record(1, b"x");
        buf[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_frame(&buf, 0).is_none());
        assert!(read_frame(&[0, 0, 0], 0).is_none(), "short header");
    }
}

#[cfg(test)]
mod packet_tests {
    use super::*;

    #[test]
    fn revoke_roundtrip() {
        let m = RevokeMessage {
            from: Symbol::intern("alice"),
            to: Symbol::intern("bob"),
            digest: digest_bytes(b"some certificate"),
            auth: vec![9, 8, 7],
        };
        let decoded = decode_packet(&encode_revoke(&m)).unwrap();
        assert_eq!(decoded, WirePacket::Revoke(m));
    }

    #[test]
    fn revsummary_and_revpull_roundtrip() {
        let summary = RevSummaryMessage {
            from: Symbol::intern("alice"),
            to: Symbol::intern("bob"),
            issuer: Symbol::intern("carol"),
            fingerprint: to_hex(&digest_bytes(b"revoked set")),
        };
        assert_eq!(
            decode_packet(&encode_revsummary(&summary)).unwrap(),
            WirePacket::RevSummary(summary)
        );
        let pull = RevPullMessage {
            from: Symbol::intern("bob"),
            to: Symbol::intern("alice"),
            issuer: Symbol::intern("carol"),
        };
        assert_eq!(
            decode_packet(&encode_revpull(&pull)).unwrap(),
            WirePacket::RevPull(pull)
        );
    }

    #[test]
    fn revgossip_roundtrips_and_stays_distinct_from_revoke() {
        let m = RevokeMessage {
            from: Symbol::intern("alice"),
            to: Symbol::intern("bob"),
            digest: digest_bytes(b"some certificate"),
            auth: vec![3, 1, 4],
        };
        // Same payload, different predicate: the gossip repair channel
        // must not decode as an eager broadcast (receivers apply the
        // two with different strictness).
        assert_eq!(
            decode_packet(&encode_revgossip(&m)).unwrap(),
            WirePacket::RevGossip(m.clone())
        );
        assert_eq!(
            decode_packet(&encode_revoke(&m)).unwrap(),
            WirePacket::Revoke(m)
        );
    }

    #[test]
    fn packet_decode_dispatches_on_predicate() {
        let export = WireMessage {
            from: Symbol::intern("a"),
            to: Symbol::intern("b"),
            rule: Arc::new(parse_rule("p(x).").unwrap()),
            auth: vec![1],
        };
        match decode_packet(&encode(&export)).unwrap() {
            WirePacket::Export(m) => assert_eq!(m, export),
            other => panic!("export decoded as {other:?}"),
        }
        assert!(decode_packet(b"says(a,b,[| p. |]).").is_err());
    }

    #[test]
    fn hex_roundtrip_and_rejects() {
        let d = digest_bytes(b"abc");
        assert_eq!(from_hex(&to_hex(&d)).unwrap(), d.to_vec());
        assert!(from_hex("abc").is_none(), "odd length");
        assert!(from_hex("zz").is_none(), "non-hex");
        assert!(from_hex("+a").is_none(), "a sign is not a digit");
        // Bytes off the wire: a wide character astride a digit pair is
        // refused, not sliced through.
        assert!(from_hex("a\u{e9}a").is_none());
        assert!(from_hex("\u{e9}").is_none());
        assert_eq!(from_hex("Ab0f"), Some(vec![0xab, 0x0f]));
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        assert_eq!(digest_bytes(b"x"), digest_bytes(b"x"));
        assert_ne!(digest_bytes(b"x"), digest_bytes(b"y"));
    }

    #[test]
    fn revoke_signing_bytes_bind_issuer_and_digest() {
        let d1 = digest_bytes(b"c1");
        let d2 = digest_bytes(b"c2");
        let a = Symbol::intern("alice");
        let b = Symbol::intern("bob");
        assert_ne!(revoke_signing_bytes(a, &d1), revoke_signing_bytes(b, &d1));
        assert_ne!(revoke_signing_bytes(a, &d1), revoke_signing_bytes(a, &d2));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(rule_src: &str, auth: &[u8]) -> WireMessage {
        WireMessage {
            from: Symbol::intern("alice"),
            to: Symbol::intern("bob"),
            rule: Arc::new(parse_rule(rule_src).unwrap()),
            auth: auth.to_vec(),
        }
    }

    #[test]
    fn roundtrip_fact() {
        let m = msg("access(carol,file1,read).", &[1, 2, 3]);
        let decoded = decode(&encode(&m)).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn roundtrip_rule_with_body() {
        let m = msg("access(P,O,read) <- good(P), !banned(P).", b"");
        let decoded = decode(&encode(&m)).unwrap();
        assert_eq!(decoded.rule.to_string(), m.rule.to_string());
        assert!(decoded.auth.is_empty());
    }

    #[test]
    fn roundtrip_nested_quote() {
        let m = msg(
            "says(alice,bob,[| reachable(a,b). |]) <- neighbor(alice,bob).",
            &[0xff; 16],
        );
        assert_eq!(decode(&encode(&m)).unwrap(), m);
    }

    #[test]
    fn rule_bytes_stable() {
        let r = parse_rule("p(X) <- q(X).").unwrap();
        assert_eq!(rule_bytes(&r), rule_bytes(&r.clone()));
        let r2 = parse_rule("p(X)   <-   q(X).").unwrap();
        // Canonical form erases whitespace differences.
        assert_eq!(rule_bytes(&r), rule_bytes(&r2));
    }

    #[test]
    fn tampered_payload_fails_decode_or_differs() {
        let m = msg("good(alice).", b"sig");
        let mut bytes = encode(&m);
        // Flip a byte inside the rule text.
        let pos = bytes.len() / 2;
        bytes[pos] = bytes[pos].wrapping_add(1);
        match decode(&bytes) {
            Err(_) => {}                           // broken syntax
            Ok(decoded) => assert_ne!(decoded, m), // or a different message
        }
    }

    #[test]
    fn garbage_rejected() {
        assert!(decode(b"not datalog at all").is_err());
        assert!(decode(&[0xff, 0xfe, 0x00]).is_err());
        // A non-export fact is rejected.
        assert!(decode(b"says(a,b,[| p. |]).").is_err());
    }
}

/// The hand-written codec against [`model`]: byte-equal encodings and
/// equal decodings of generated packets, and hostile bytes — valid
/// encodings flipped, cut, spliced, doubled and extended — that the
/// decoder must refuse or read exactly as the model does.
#[cfg(test)]
mod codec_model {
    use super::*;
    use lbtrust_datalog::ast::{Atom, BodyItem, CmpOp, Expr, PredRef, Term};
    use proptest::prelude::*;

    fn name() -> impl Strategy<Value = Symbol> {
        prop_oneof![
            "[a-z][a-z0-9_']{0,6}".boxed(),
            "[a-z]{1,3}:[0-9]:[a-f0-9]{1,8}".boxed(),
        ]
        .prop_filter("a principal's name", |s| is_principal_name(s))
        .prop_map(|s| Symbol::intern(&s))
    }

    /// Any string, leaning on what the envelope's own punctuation,
    /// the escapes and wide characters are made of.
    fn text() -> impl Strategy<Value = String> {
        let piece = prop_oneof![
            "[a-z ]{0,4}".boxed(),
            prop_oneof![
                Just("|]"),
                Just(",#"),
                Just(")."),
                Just("[|"),
                Just("//"),
                Just("\""),
                Just("\\"),
                Just("#"),
                Just("\n"),
                Just("\t\r"),
                Just("\0"),
                Just("\u{1}"),
                Just("\u{7f}"),
                Just("\u{85}"),
                Just("é"),
                Just("€5"),
                Just("\u{10ffff}"),
            ]
            .prop_map(str::to_string)
            .boxed(),
            any::<u32>()
                .prop_map(|u| char::from_u32(u % 0x11_0000).map_or_else(String::new, String::from))
                .boxed(),
        ];
        prop::collection::vec(piece, 0..4).prop_map(|pieces| pieces.concat())
    }

    fn variable() -> impl Strategy<Value = Symbol> {
        "[A-Z][a-z0-9]{0,3}".prop_map(|v| Symbol::intern(&v))
    }

    /// A term; `quotes` is how many more levels of quote it may open.
    fn term(quotes: u32) -> BoxedStrategy<Term> {
        let mut arms = vec![
            variable().prop_map(Term::Var).boxed(),
            name().prop_map(|s| Term::Val(Value::Sym(s))).boxed(),
            any::<i32>().prop_map(|i| Term::int(i as i64)).boxed(),
            text().prop_map(|s| Term::Val(Value::str(&s))).boxed(),
            prop::collection::vec(any::<u8>(), 0..5)
                .prop_map(|b| Term::Val(Value::bytes(&b)))
                .boxed(),
        ];
        if quotes > 0 {
            arms.push(
                rule(quotes - 1)
                    .prop_map(|r| Term::Quote(Arc::new(r)))
                    .boxed(),
            );
        }
        prop::strategy::Union::new(arms).boxed()
    }

    fn atom(quotes: u32) -> impl Strategy<Value = Atom> {
        let args = || prop::collection::vec(term(quotes), 0..3);
        (
            "[a-z][a-z0-9_:]{0,5}[a-z0-9]",
            any::<bool>(),
            args(),
            args(),
        )
            .prop_map(|(pred, keyed, key_args, args)| Atom {
                pred: PredRef::Name(Symbol::intern(&pred)),
                key_args: if keyed { key_args } else { Vec::new() },
                args,
            })
    }

    fn body_item(quotes: u32) -> impl Strategy<Value = BodyItem> {
        let op = prop_oneof![
            Just(CmpOp::Eq),
            Just(CmpOp::Ne),
            Just(CmpOp::Lt),
            Just(CmpOp::Ge)
        ];
        prop_oneof![
            (atom(quotes), any::<bool>())
                .prop_map(|(atom, negated)| BodyItem::Lit { negated, atom })
                .boxed(),
            (variable(), op, term(quotes))
                .prop_map(|(v, op, rhs)| BodyItem::Cmp {
                    op,
                    lhs: Expr::Term(Term::Var(v)),
                    rhs: Expr::Term(rhs),
                })
                .boxed(),
        ]
    }

    /// The paper's templates: functor, whole-atom, sequence and rest
    /// meta-variables, which only a quote may hold.
    const TEMPLATES: [&str; 4] = [
        "A <- P(T2*), A*.",
        "P(T*) <- A*.",
        "active(R) <- says(U2,me,R), R = [| P(T*) <- A*. |].",
        "response(R), message:fname(R,S) <- A*.",
    ];

    fn rule(quotes: u32) -> BoxedStrategy<Rule> {
        let body = prop::collection::vec(body_item(quotes), 0..3);
        (atom(quotes), body, 0..3 * TEMPLATES.len())
            .prop_map(|(head, body, pick)| match TEMPLATES.get(pick) {
                Some(template) => {
                    parse_quoted_rule(&format!("[| {template} |]")).expect("a template parses")
                }
                None => Rule {
                    heads: vec![head],
                    body,
                    agg: None,
                },
            })
            .boxed()
    }

    fn auth() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![Just(0usize), Just(20), Just(128)]
            .prop_map(|len| (0..len).map(|i| (i * 131 + len) as u8).collect())
    }

    fn packet() -> impl Strategy<Value = WirePacket> {
        let revoke = || {
            (name(), name(), text(), auth()).prop_map(|(from, to, seed, auth)| RevokeMessage {
                from,
                to,
                digest: digest_bytes(seed.as_bytes()),
                auth,
            })
        };
        prop_oneof![
            (name(), name(), rule(2), auth())
                .prop_map(|(from, to, rule, auth)| WirePacket::Export(WireMessage {
                    from,
                    to,
                    rule: Arc::new(rule),
                    auth
                }))
                .boxed(),
            revoke().prop_map(WirePacket::Revoke).boxed(),
            revoke().prop_map(WirePacket::RevGossip).boxed(),
            (name(), name(), name(), text())
                .prop_map(|(from, to, issuer, fingerprint)| {
                    WirePacket::RevSummary(RevSummaryMessage {
                        from,
                        to,
                        issuer,
                        fingerprint,
                    })
                })
                .boxed(),
            (name(), name(), name())
                .prop_map(|(from, to, issuer)| {
                    WirePacket::RevPull(RevPullMessage { from, to, issuer })
                })
                .boxed(),
        ]
    }

    /// One hostile edit of `bytes`, drawn from `dice`; `other` is a
    /// second valid encoding to splice from.
    fn mutate(bytes: &[u8], other: &[u8], dice: (u8, usize, usize, u8)) -> Vec<u8> {
        let (kind, a, b, byte) = dice;
        let mut out = bytes.to_vec();
        let at = a % (out.len() + 1);
        let end = at + b % (out.len() - at + 1);
        match kind % 7 {
            0 if at < out.len() => out[at] ^= 1 << (byte % 8),
            1 => out.truncate(at),
            2 => {
                let from = b % (other.len() + 1);
                let take = (byte as usize % 24).min(other.len() - from);
                out.splice(at..at, other[from..from + take].iter().copied());
            }
            3 => {
                let doubled = out[at..end].to_vec();
                out.splice(end..end, doubled);
            }
            4 => out.extend(std::iter::repeat_n(byte, 1 + b % 8)),
            5 => {
                // What the general parser skips, and a decoder must not
                // skip outside the quoted rule.
                let blank = [" ", "\n", "\t", "// |]\n", "// said"][b % 5];
                out.splice(at..at, blank.bytes());
            }
            _ => out.splice(at..end, [byte]).for_each(drop),
        }
        out
    }

    /// What [`encode_packet`] puts around an export's quoted rule.
    fn export_envelope(msg: &WireMessage) -> (String, String) {
        (
            format!("export[{}]({},", msg.to, msg.from),
            format!(",#{}).", to_hex(&msg.auth)),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// (a) Same bytes as the model, and they decode to what went in.
        #[test]
        fn encodes_as_the_model_and_roundtrips(p in packet()) {
            let bytes = encode_packet(&p);
            prop_assert_eq!(
                String::from_utf8_lossy(&bytes),
                String::from_utf8_lossy(&model::encode_packet(&p))
            );
            prop_assert_eq!(decode_packet(&bytes), Ok(p.clone()));
            prop_assert_eq!(model::decode_packet(&bytes), Ok(p.clone()));
            prop_assert_eq!(decode(&bytes).ok(), model::decode(&bytes).ok());
            if let WirePacket::Export(msg) = &p {
                prop_assert_eq!(decode(&bytes).as_ref(), Ok(msg));
                prop_assert_eq!(encode_export(msg.to, msg.from, &msg.rule, &msg.auth), bytes);
            }
        }

        /// (b) Hostile bytes: no panic; what decodes, decodes as the
        /// model has it, and was spelled the one canonical way — all of
        /// it, or all of it around an export's quoted rule.
        #[test]
        fn hostile_bytes_decode_as_the_model_or_not_at_all(
            p in packet(),
            other in packet(),
            edits in prop::collection::vec(
                (any::<u8>(), any::<usize>(), any::<usize>(), any::<u8>()),
                1..4,
            ),
        ) {
            let other = encode_packet(&other);
            let mut bytes = encode_packet(&p);
            for dice in edits {
                bytes = mutate(&bytes, &other, dice);
                let Ok(decoded) = decode_packet(&bytes) else { continue };
                let shown = String::from_utf8_lossy(&bytes).into_owned();
                prop_assert_eq!(model::decode_packet(&bytes).as_ref(), Ok(&decoded), "{}", shown);
                let canonical = encode_packet(&decoded);
                if let (WirePacket::Export(msg), false) = (&decoded, canonical == bytes) {
                    let (open, close) = export_envelope(msg);
                    prop_assert!(
                        shown.starts_with(&open)
                            && shown.ends_with(&close)
                            && shown.len() >= open.len() + close.len(),
                        "{shown}"
                    );
                } else {
                    prop_assert_eq!(String::from_utf8_lossy(&canonical), shown);
                }
            }
        }

        /// (c) A byte string prints as `#` and [`to_hex`], and the lexer
        /// reads that back.
        #[test]
        fn bytes_print_as_hex_and_lex_back(len in 0usize..=300, salt in any::<u8>()) {
            let bytes: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(37) ^ salt).collect();
            let shown = Value::bytes(&bytes).to_string();
            prop_assert_eq!(&shown, &format!("#{}", to_hex(&bytes)));
            let tokens = lex(&shown).unwrap();
            prop_assert_eq!(tokens.len(), 1);
            prop_assert_eq!(&tokens[0].token, &Token::Bytes(bytes));
        }
    }

    /// The envelope is canonical or refused: each of these the model
    /// reads (the general parser skips blanks and comments, takes hex of
    /// either case, and any symbol) and the decoder does not.
    #[test]
    fn the_envelope_has_one_spelling() {
        let canonical = "export[bob](alice,[| p(x). |],#0a).";
        assert!(decode_packet(canonical.as_bytes()).is_ok());
        // The quoted rule's own text is the sender's business.
        for free in [
            "export[bob](alice,[|p(x)|],#0a).",
            "export[bob](alice,[| p( x ). // said\n |],#0a).",
        ] {
            assert_eq!(
                decode_packet(free.as_bytes()),
                decode_packet(canonical.as_bytes()),
                "{free}"
            );
        }
        for loose in [
            "export[bob](alice, [| p(x). |],#0a).",
            "export[bob](alice,[| p(x). |] ,#0a).",
            "export[bob](alice,[| p(x). |],#0A).",
            "export[bob](alice,[| p(x). |],#0a). ",
            " export[bob](alice,[| p(x). |],#0a).",
            "export[bob] (alice,[| p(x). |],#0a).",
            "export[me](alice,[| p(x). |],#0a).",
            "revpull[bob](alice,carol). // again",
            "revpull[bob](alice, carol).",
            "revsummary[bob](alice,carol,\"a\tb\").",
            "revsummary[bob](alice,carol,\"ab\" ).",
        ] {
            let err = decode_packet(loose.as_bytes()).unwrap_err();
            assert!(err.message.contains(" at byte "), "{loose}: {err}");
            assert!(model::decode_packet(loose.as_bytes()).is_ok(), "{loose}");
        }
        // A comment that ends in `|]` closes nothing — the model loses the
        // packet's tail to it — and one rule is one rule: the decoder may
        // not read `p(x)` out of any of these.
        for broken in [
            "export[bob](alice,[| p(x). |] // |],#0a).",
            "export[bob](alice,[| p(x). |] |],#0a).",
            "export[bob](alice,[| p(x). |] [| q(x). |],#0a).",
            "export[bob](alice,[| p(x). |],#0a)",
        ] {
            assert!(decode_packet(broken.as_bytes()).is_err(), "{broken}");
            assert!(model::decode_packet(broken.as_bytes()).is_err(), "{broken}");
        }
        for upper in ["revoke", "revgossip"] {
            let digest = to_hex(&digest_bytes(b"c")).to_uppercase();
            let loose = format!("{upper}[bob](alice,\"{digest}\",#).");
            assert!(model::decode_packet(loose.as_bytes()).is_ok());
            assert!(decode_packet(loose.as_bytes()).is_err());
            let canonical = loose.replace(&digest, &digest.to_lowercase());
            assert!(decode_packet(canonical.as_bytes()).is_ok());
        }
    }

    /// Quotes nested past the parser's limit are refused, not descended
    /// into — on the 2 MiB stack a spawned thread gets.
    #[test]
    fn deep_packets_are_refused_on_a_default_thread_stack() {
        use lbtrust_datalog::parser::MAX_NESTING;
        let nested = |depth: usize| {
            let (open, close) = ("[| p(".repeat(depth), "). |]".repeat(depth));
            format!("export[bob](alice,{open}1{close},#).").into_bytes()
        };
        let checked = std::thread::spawn(move || {
            assert!(decode_packet(&nested(MAX_NESTING)).is_ok());
            for depth in [MAX_NESTING + 1, 10_000, 100_000] {
                let err = decode_packet(&nested(depth)).unwrap_err();
                assert!(
                    err.message.contains("nesting deeper than"),
                    "{depth}: {err}"
                );
            }
            // The other shapes that recurse, inside a quoted rule.
            for (open, close) in [("(", ")"), ("!", ""), ("!(", ")")] {
                let body = |depth: usize| {
                    let (open, close) = (open.repeat(depth), close.repeat(depth));
                    format!("export[bob](alice,[| p(X) <- {open}q(X){close}. |],#).").into_bytes()
                };
                assert!(decode_packet(&body(MAX_NESTING / 2 - 1)).is_ok());
                for depth in [MAX_NESTING, 100_000] {
                    let err = decode_packet(&body(depth)).unwrap_err();
                    assert!(
                        err.message.contains("nesting deeper than"),
                        "{depth}: {err}"
                    );
                }
            }
            let sum = |terms: usize| {
                let chain = " + 1".repeat(terms);
                format!("export[bob](alice,[| p(X) <- q(Y), X = (Y{chain}). |],#).").into_bytes()
            };
            assert!(decode_packet(&sum(MAX_NESTING - 2)).is_ok());
            let err = decode_packet(&sum(100_000)).unwrap_err();
            assert!(err.message.contains("nesting deeper than"), "{err}");
        });
        checked.join().expect("no overflow, no panic");
    }
}
