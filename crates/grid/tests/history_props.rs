//! Property tests for the history record format: byte-swapped round-trips
//! and corrupt-header decoding, each asserting the precise error variant.
//!
//! No external property-testing crate is available offline; properties run
//! over 64 seeded SplitMix64 cases each, deterministic across runs.

use agcm_grid::field::Field3D;
use agcm_grid::history::{byte_reverse_elements, decode, encode, ByteOrder, HistoryError};

const CASES: u64 = 64;
/// Record header: 4 magic bytes + 4 u32s (marker, ni, nj, nk).
const HEADER: usize = 4 + 4 * 4;

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
    fn f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 2.0e6
    }
    fn field(&mut self) -> Field3D {
        let (ni, nj, nk) = (self.range(1, 10), self.range(1, 8), self.range(1, 5));
        let mut f = Field3D::zeros(ni, nj, nk);
        for v in f.as_mut_slice() {
            *v = self.f64();
        }
        f
    }
}

#[test]
fn roundtrip_is_exact_in_both_orders() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let f = rng.field();
        let order = if rng.next_u64().is_multiple_of(2) {
            ByteOrder::Little
        } else {
            ByteOrder::Big
        };
        let rec = encode(&f, order);
        let (back, detected) = decode(&rec).unwrap();
        assert_eq!(detected, order, "case {case}");
        assert_eq!(
            back.as_slice(),
            f.as_slice(),
            "case {case}: payload must be bit-exact"
        );
    }
}

#[test]
fn byte_swapping_a_record_yields_the_opposite_order_record() {
    // The paper's byte-order reversal routine, as a record-level property:
    // reversing each u32 header element and each f64 payload element of a
    // little-endian record produces exactly the big-endian record.
    for case in 0..CASES {
        let mut rng = Rng::new(1000 + case);
        let f = rng.field();
        let little = encode(&f, ByteOrder::Little);
        let big = encode(&f, ByteOrder::Big);
        let mut swapped = little.clone();
        byte_reverse_elements(&mut swapped[4..HEADER], 4);
        byte_reverse_elements(&mut swapped[HEADER..], 8);
        assert_eq!(swapped, big, "case {case}");
        // And the swapped record still decodes to the same field.
        let (back, order) = decode(&swapped).unwrap();
        assert_eq!(order, ByteOrder::Big, "case {case}");
        assert_eq!(back.as_slice(), f.as_slice(), "case {case}");
    }
}

#[test]
fn bad_magic_reports_the_bytes_found() {
    for case in 0..CASES {
        let mut rng = Rng::new(2000 + case);
        let f = rng.field();
        let mut rec = encode(&f, ByteOrder::Little);
        let pos = rng.range(0, 4);
        let orig = rec[pos];
        rec[pos] = orig.wrapping_add(rng.range(1, 255) as u8);
        let mut expected = [0u8; 4];
        expected.copy_from_slice(&rec[..4]);
        assert_eq!(
            decode(&rec),
            Err(HistoryError::BadMagic(expected)),
            "case {case}: corrupting magic byte {pos}"
        );
    }
}

#[test]
fn corrupt_endian_marker_is_rejected() {
    for case in 0..CASES {
        let mut rng = Rng::new(3000 + case);
        let f = rng.field();
        let mut rec = encode(&f, ByteOrder::Big);
        // Flip one random bit of the marker; no single-bit flip can turn
        // one valid marker into the other.
        let pos = 4 + rng.range(0, 4);
        rec[pos] ^= 1 << rng.range(0, 8);
        assert!(
            matches!(decode(&rec), Err(HistoryError::BadEndianMarker(_))),
            "case {case}: bit flip at byte {pos}"
        );
    }
}

#[test]
fn header_truncation_is_truncated_error() {
    for case in 0..CASES {
        let mut rng = Rng::new(4000 + case);
        let f = rng.field();
        let rec = encode(&f, ByteOrder::Little);
        let cut = rng.range(0, HEADER);
        assert_eq!(
            decode(&rec[..cut]),
            Err(HistoryError::Truncated),
            "case {case}: cut at {cut}"
        );
    }
}

#[test]
fn payload_truncation_is_length_mismatch_with_exact_counts() {
    for case in 0..CASES {
        let mut rng = Rng::new(5000 + case);
        let f = rng.field();
        let rec = encode(&f, ByteOrder::Little);
        let payload = rec.len() - HEADER;
        let cut = HEADER + rng.range(0, payload);
        assert_eq!(
            decode(&rec[..cut]),
            Err(HistoryError::LengthMismatch {
                expected: payload,
                found: cut - HEADER
            }),
            "case {case}: cut at {cut}"
        );
    }
}

#[test]
fn wrong_header_dims_are_length_mismatch() {
    for case in 0..CASES {
        let mut rng = Rng::new(6000 + case);
        let f = rng.field();
        let (ni, nj, nk) = f.shape();
        let mut rec = encode(&f, ByteOrder::Little);
        // Overwrite one dimension with a different value (little-endian,
        // matching the record's order).
        let dim = rng.range(0, 3);
        let old = [ni, nj, nk][dim];
        let wrong = old + rng.range(1, 7);
        rec[8 + 4 * dim..8 + 4 * dim + 4].copy_from_slice(&(wrong as u32).to_le_bytes());
        let expected = match dim {
            0 => wrong * nj * nk * 8,
            1 => ni * wrong * nk * 8,
            _ => ni * nj * wrong * 8,
        };
        assert_eq!(
            decode(&rec),
            Err(HistoryError::LengthMismatch {
                expected,
                found: ni * nj * nk * 8
            }),
            "case {case}: dim {dim} {old} -> {wrong}"
        );
    }
}
