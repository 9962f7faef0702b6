//! Minimal little-endian byte codec helpers for the cache warm-state
//! snapshots (see [`crate::Cache::save_state`]).
//!
//! Deliberately dumb fixed-width scalars, mirroring the helpers in
//! `fgstp-bpred`: the payloads never leave the process, so there is no
//! versioning or checksumming. These only have to be exact and to reject
//! any shape mismatch with an `Err`, never a panic.

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

/// Reads one byte off the front of `r`.
pub(crate) fn take_u8(r: &mut &[u8]) -> Result<u8, String> {
    let Some((&head, rest)) = r.split_first() else {
        return Err("snapshot payload truncated (u8)".to_owned());
    };
    *r = rest;
    Ok(head)
}
