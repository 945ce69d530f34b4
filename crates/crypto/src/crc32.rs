//! CRC-32 (IEEE 802.3 polynomial), the cheap non-cryptographic checksum
//! offered for the paper's *integrity* construct (§4.1.3) when corruption
//! detection, not adversarial tampering, is the concern.

/// Computes the CRC-32 of `data` (IEEE polynomial, reflected, init/xorout
/// `0xFFFFFFFF`) — the same parameterization as zlib.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLE[b]`: what eight shift-and-mask rounds make of the byte `b`.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut state = byte as u32;
        let mut round = 0;
        while round < 8 {
            state = (state >> 1) ^ (POLY & (state & 1).wrapping_neg());
            round += 1;
        }
        table[byte] = state;
        byte += 1;
    }
    table
};

/// Incrementally folds `data` into a running CRC state (pass
/// `0xFFFFFFFF` to start, XOR the final state with `0xFFFFFFFF`): one
/// table lookup per byte.
pub fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
    for &byte in data {
        state = (state >> 8) ^ TABLE[((state ^ byte as u32) & 0xff) as usize];
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-at-a-time loop the table replaced, kept as the model.
    fn crc32_update_bitwise(mut state: u32, data: &[u8]) -> u32 {
        for &byte in data {
            state ^= byte as u32;
            for _ in 0..8 {
                let mask = (state & 1).wrapping_neg();
                state = (state >> 1) ^ (POLY & mask);
            }
        }
        state
    }

    proptest! {
        #[test]
        fn table_matches_the_bitwise_model(
            state in any::<u32>(),
            data in prop::collection::vec(any::<u8>(), 0..600),
        ) {
            prop_assert_eq!(crc32_update(state, &data), crc32_update_bitwise(state, &data));
        }
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn detects_single_bit_flip() {
        let data = b"reachable(alice, bob)".to_vec();
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), base, "flip at byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"hello world, this is a checksum test";
        let whole = crc32(data);
        let mut state = 0xFFFF_FFFF;
        state = crc32_update(state, &data[..10]);
        state = crc32_update(state, &data[10..]);
        assert_eq!(state ^ 0xFFFF_FFFF, whole);
    }
}
