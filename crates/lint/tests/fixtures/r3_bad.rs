//! R3 bad: unchecked slice indexing inside decoders.

pub fn from_bytes(data: &[u8]) -> u64 {
    let hi = data[0];
    u64::from(hi)
}

pub fn decode_len(data: &[u8]) -> usize {
    usize::from(data[1])
}
