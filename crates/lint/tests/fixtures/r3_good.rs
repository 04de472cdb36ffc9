//! R3 good: fallible accessors in decoders, and a reasoned suppression
//! for a structurally guaranteed index.

pub fn from_bytes(data: &[u8]) -> Result<u64, String> {
    let b = data.first().copied().ok_or_else(|| "empty".to_string())?;
    Ok(u64::from(b))
}

pub fn load_flags(header: &[u8; 13]) -> u8 {
    // sj-lint: allow(panic, a fixed 13-byte array always has index 4)
    header[4]
}
