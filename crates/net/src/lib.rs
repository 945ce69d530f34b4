//! # lbtrust-net — simulated distribution substrate for LBTrust
//!
//! The paper runs principals on physically separate nodes (§3.5, §6).
//! This crate provides the deterministic stand-in used by the
//! reproduction: node identities ([`node`]), a seeded discrete-event
//! network with latency jitter, loss and duplication ([`network`]), and
//! the canonical-text wire encoding of exported rules ([`wire`]) over
//! which signatures are computed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod network;
pub mod node;
pub mod wire;

pub use network::{Envelope, NetworkConfig, NetworkStats, SimNetwork};
pub use node::NodeId;
pub use wire::{
    decode, decode_packet, digest_bytes, encode, encode_export, encode_packet, encode_revgossip,
    encode_revoke, encode_revpull, encode_revsummary, frame_meta_file, frame_record, from_hex,
    read_frame, read_frame_sequence, read_meta_file, revoke_signing_bytes, rule_bytes, to_hex,
    RevPullMessage, RevSummaryMessage, RevokeMessage, WireDigest, WireError, WireMessage,
    WirePacket, FRAME_OVERHEAD, MAX_FRAME_BODY, META_CHECKPOINT, META_MANIFEST,
};
