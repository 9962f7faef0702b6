//! Minimal little-endian byte codec helpers shared by the predictor
//! state snapshots (see [`crate::DirectionPredictor::save_state`]).
//!
//! The format is deliberately dumb: fixed-width `u64` scalars and
//! length-prefixed byte runs, no framing, no versioning — the payloads
//! never leave the process. These helpers only have to be exact and to
//! fail loudly (with an `Err`, never a panic) on any length mismatch.

/// Appends `v` as 8 little-endian bytes.
pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Reads 8 little-endian bytes off the front of `r`.
pub(crate) fn take_u64(r: &mut &[u8]) -> Result<u64, String> {
    let Some((head, rest)) = r.split_first_chunk::<8>() else {
        return Err("snapshot payload truncated (u64)".to_owned());
    };
    *r = rest;
    Ok(u64::from_le_bytes(*head))
}

/// Appends a length-prefixed byte run.
pub(crate) fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Reads a length-prefixed byte run of exactly `expect` bytes.
pub(crate) fn take_bytes_exact<'a>(r: &mut &'a [u8], expect: usize) -> Result<&'a [u8], String> {
    let len = take_u64(r)? as usize;
    if len != expect {
        return Err(format!(
            "snapshot shape mismatch: {len} bytes, expected {expect}"
        ));
    }
    if r.len() < len {
        return Err("snapshot payload truncated (bytes)".to_owned());
    }
    let (head, rest) = r.split_at(len);
    *r = rest;
    Ok(head)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_rejects_truncation() {
        let mut out = Vec::new();
        put_u64(&mut out, 0xdead_beef_0badu64);
        put_bytes(&mut out, &[1, 2, 3]);
        let mut r = out.as_slice();
        assert_eq!(take_u64(&mut r).unwrap(), 0xdead_beef_0badu64);
        assert_eq!(take_bytes_exact(&mut r, 3).unwrap(), &[1, 2, 3]);
        assert!(r.is_empty());

        let mut short = &out[..4];
        assert!(take_u64(&mut short).is_err());
        let mut wrong = out.as_slice();
        take_u64(&mut wrong).unwrap();
        assert!(take_bytes_exact(&mut wrong, 4).is_err(), "length mismatch");
    }
}
