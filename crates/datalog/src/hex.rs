//! Lowercase hex, the text form of a byte string: `#dead` in the
//! dialect, the `#…` tail of a wire packet, a digest in a log record.
//! One writer spells all of them and one reader takes them back.

use std::fmt;

const DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Writes the lowercase hex of `bytes`, 32 bytes to a `write_str`.
pub fn write_hex(out: &mut impl fmt::Write, bytes: &[u8]) -> fmt::Result {
    let mut buf = [0u8; 64];
    for chunk in bytes.chunks(32) {
        for (pair, &b) in buf.chunks_exact_mut(2).zip(chunk) {
            pair[0] = DIGITS[(b >> 4) as usize];
            pair[1] = DIGITS[(b & 0xf) as usize];
        }
        let text = std::str::from_utf8(&buf[..chunk.len() * 2]).expect("hex digits are ascii");
        out.write_str(text)?;
    }
    Ok(())
}

/// Reads hex of either case back into bytes: `None` unless `hex` is an
/// even number of hex digits and nothing else (a sign, or a byte of a
/// wider character, is not a digit wherever it falls).
pub fn from_hex(hex: &[u8]) -> Option<Vec<u8>> {
    let nibble = |c: u8| match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    };
    if !hex.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(hex.len() / 2);
    for pair in hex.chunks_exact(2) {
        out.push(nibble(pair[0])? << 4 | nibble(pair[1])?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_length_writes_two_digits_a_byte_and_reads_back() {
        let bytes: Vec<u8> = (0..300u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=bytes.len() {
            let mut written = String::new();
            write_hex(&mut written, &bytes[..len]).unwrap();
            let spelled: String = bytes[..len].iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(written, spelled, "length {len}");
            assert_eq!(from_hex(written.as_bytes()).as_deref(), Some(&bytes[..len]));
        }
        assert_eq!(from_hex(b"Ab0f"), Some(vec![0xab, 0x0f]));
        assert_eq!(from_hex(b"abc"), None, "odd length");
        assert_eq!(from_hex(b"+a"), None, "a sign is not a digit");
        assert_eq!(from_hex("a\u{e9}".as_bytes()), None);
    }
}
