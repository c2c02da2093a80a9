//! History (restart) records with explicit byte-order conversion.
//!
//! "The UCLA AGCM code uses a NETCDF input history file and we do not have
//! a NETCDF library available on the Paragon, we had to develop a
//! byte-order reversal routine to convert the history data" (paper §4).
//! This module reproduces that functionality without NetCDF: a simple
//! binary snapshot format that records its own endianness, and a reader
//! that byte-swaps when the writing machine's order differs from the
//! reading machine's.
//!
//! Format (all header fields u32 in the *writer's* byte order):
//! `magic ("AGCM") · endian marker (0x01020304) · ni · nj · nk · payload of
//! ni·nj·nk f64 values`.

use crate::field::Field3D;
use std::fmt;

const MAGIC: &[u8; 4] = b"AGCM";
const ENDIAN_MARKER: u32 = 0x0102_0304;
/// The marker as seen through byte-swapped glasses.
const ENDIAN_MARKER_SWAPPED: u32 = 0x0403_0201;

/// Errors from decoding a history record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistoryError {
    /// Record shorter than its header.
    Truncated,
    /// Magic bytes did not match.
    BadMagic([u8; 4]),
    /// Endianness marker unintelligible in either byte order.
    BadEndianMarker(u32),
    /// Payload length disagrees with the header dimensions.
    LengthMismatch {
        /// Bytes promised by the header (`usize::MAX` when that
        /// product overflows).
        expected: usize,
        /// Bytes present.
        found: usize,
    },
}

impl fmt::Display for HistoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistoryError::Truncated => write!(f, "history record truncated"),
            HistoryError::BadMagic(m) => write!(f, "bad magic bytes {m:?}"),
            HistoryError::BadEndianMarker(v) => write!(f, "unintelligible endian marker {v:#x}"),
            HistoryError::LengthMismatch { expected, found } => {
                write!(
                    f,
                    "payload length mismatch: expected {expected} bytes, found {found}"
                )
            }
        }
    }
}

impl std::error::Error for HistoryError {}

/// Byte order of a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByteOrder {
    /// Little-endian (Paragon's i860, modern x86).
    Little,
    /// Big-endian (the workstation/Cray side of the paper's conversion).
    Big,
}

/// Encode a field as a history record in the requested byte order.
pub fn encode(field: &Field3D, order: ByteOrder) -> Vec<u8> {
    let (ni, nj, nk) = field.shape();
    let mut buf = Vec::with_capacity(4 + 4 * 4 + field.len() * 8);
    buf.extend_from_slice(MAGIC);
    for v in [ENDIAN_MARKER, ni as u32, nj as u32, nk as u32] {
        buf.extend_from_slice(&match order {
            ByteOrder::Little => v.to_le_bytes(),
            ByteOrder::Big => v.to_be_bytes(),
        });
    }
    for &v in field.as_slice() {
        buf.extend_from_slice(&match order {
            ByteOrder::Little => v.to_le_bytes(),
            ByteOrder::Big => v.to_be_bytes(),
        });
    }
    buf
}

/// Decode a history record, byte-swapping if it was written on a machine
/// of the opposite endianness — the paper's "byte-order reversal routine".
pub fn decode(record: &[u8]) -> Result<(Field3D, ByteOrder), HistoryError> {
    const HEADER: usize = 4 + 4 * 4;
    if record.len() < HEADER {
        return Err(HistoryError::Truncated);
    }
    let (header, payload) = record.split_at(HEADER);
    let words = header.as_chunks::<4>().0;
    if &words[0] != MAGIC {
        return Err(HistoryError::BadMagic(words[0]));
    }
    // Read the marker little-endian and decide.
    let order = match u32::from_le_bytes(words[1]) {
        ENDIAN_MARKER => ByteOrder::Little,
        ENDIAN_MARKER_SWAPPED => ByteOrder::Big,
        other => return Err(HistoryError::BadEndianMarker(other)),
    };
    let dim = |i: usize| -> usize {
        let v = match order {
            ByteOrder::Little => u32::from_le_bytes(words[i]),
            ByteOrder::Big => u32::from_be_bytes(words[i]),
        };
        v as usize
    };
    let (ni, nj, nk) = (dim(2), dim(3), dim(4));
    // Header dims are untrusted: a product that overflows cannot match
    // any payload that fits in memory.
    let expected = ni
        .checked_mul(nj)
        .and_then(|n| n.checked_mul(nk))
        .and_then(|n| n.checked_mul(8));
    if expected != Some(payload.len()) {
        return Err(HistoryError::LengthMismatch {
            expected: expected.unwrap_or(usize::MAX),
            found: payload.len(),
        });
    }
    if payload.is_empty() {
        return Ok((Field3D::zeros(ni.max(1), nj.max(1), nk.max(1)), order));
    }
    let mut field = Field3D::zeros(ni, nj, nk);
    for (v, &bytes) in field
        .as_mut_slice()
        .iter_mut()
        .zip(payload.as_chunks::<8>().0)
    {
        *v = match order {
            ByteOrder::Little => f64::from_le_bytes(bytes),
            ByteOrder::Big => f64::from_be_bytes(bytes),
        };
    }
    Ok((field, order))
}

/// Reverse the byte order of every `width`-byte element in place — the
/// standalone swap routine, usable on raw payloads.
pub fn byte_reverse_elements(data: &mut [u8], width: usize) {
    assert!(
        width > 0 && data.len().is_multiple_of(width),
        "data must be a whole number of elements"
    );
    for chunk in data.chunks_mut(width) {
        chunk.reverse();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_field() -> Field3D {
        Field3D::from_fn(6, 5, 3, |i, j, k| {
            (i as f64) + 0.25 * j as f64 - 3.5 * k as f64
        })
    }

    #[test]
    fn roundtrip_native_orders() {
        let f = sample_field();
        for order in [ByteOrder::Little, ByteOrder::Big] {
            let rec = encode(&f, order);
            let (back, detected) = decode(&rec).unwrap();
            assert_eq!(detected, order);
            assert_eq!(back.max_abs_diff(&f), 0.0);
        }
    }

    #[test]
    fn cross_endian_read_byte_swaps() {
        // Write big-endian (workstation), read on a little-endian machine:
        // the reader must detect and swap, recovering identical floats.
        let f = sample_field();
        let rec = encode(&f, ByteOrder::Big);
        let (back, order) = decode(&rec).unwrap();
        assert_eq!(order, ByteOrder::Big);
        assert_eq!(back.max_abs_diff(&f), 0.0);
    }

    #[test]
    fn bad_magic_detected() {
        let f = sample_field();
        let mut rec = encode(&f, ByteOrder::Little);
        rec[0] = b'X';
        assert!(matches!(decode(&rec), Err(HistoryError::BadMagic(_))));
    }

    #[test]
    fn truncation_detected() {
        let f = sample_field();
        let rec = encode(&f, ByteOrder::Little);
        assert_eq!(decode(&rec[..10]), Err(HistoryError::Truncated));
        // Cut into the payload: header fine, length mismatch.
        let cut = rec.len() - 8;
        assert!(matches!(
            decode(&rec[..cut]),
            Err(HistoryError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn overflowing_dims_are_an_error_not_a_panic() {
        // A bare header whose dims (2^21 each) overflow ni·nj·nk·8.
        let mut rec = MAGIC.to_vec();
        for v in [ENDIAN_MARKER, 1 << 21, 1 << 21, 1 << 21] {
            rec.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(rec.len(), 20);
        assert_eq!(
            decode(&rec),
            Err(HistoryError::LengthMismatch {
                expected: usize::MAX,
                found: 0
            })
        );
    }

    #[test]
    fn corrupt_marker_detected() {
        let f = sample_field();
        let mut rec = encode(&f, ByteOrder::Little);
        rec[4] = 0xFF;
        assert!(matches!(
            decode(&rec),
            Err(HistoryError::BadEndianMarker(_))
        ));
    }

    #[test]
    fn element_reversal_involution() {
        let mut data: Vec<u8> = (0..32).collect();
        let orig = data.clone();
        byte_reverse_elements(&mut data, 8);
        assert_ne!(data, orig);
        byte_reverse_elements(&mut data, 8);
        assert_eq!(data, orig);
    }

    #[test]
    fn element_reversal_matches_float_swap() {
        let x = 1234.5678f64;
        let mut le = x.to_le_bytes().to_vec();
        byte_reverse_elements(&mut le, 8);
        assert_eq!(f64::from_be_bytes(le.try_into().unwrap()), x);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            HistoryError::Truncated.to_string(),
            "history record truncated"
        );
        assert!(HistoryError::LengthMismatch {
            expected: 8,
            found: 4
        }
        .to_string()
        .contains("expected 8"));
    }
}
