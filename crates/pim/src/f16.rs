//! Minimal IEEE-754 binary16 conversion helpers.
//!
//! The functional PIM engine stores fp16 weights in the byte-accurate DRAM
//! model and computes GEMV over them; these conversions avoid an external
//! half-precision dependency.

/// Convert an `f32` to its fp16 bit pattern (round-to-nearest-even).
///
/// NaNs keep the top 10 payload bits with the quiet bit forced (signaling
/// NaNs come out quieted, payloads that fit are preserved); magnitudes that
/// round past 65504 become infinity. All three cases are computed and one
/// is selected, so no input costs a mispredicted branch.
#[inline]
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let abs = bits & 0x7FFF_FFFF;
    // Below 2^-14, an fp16 subnormal or zero: adding 0.5 puts the fp16
    // subnormal quantum (2^-24) at the sum's last mantissa bit, so the f32
    // addition itself rounds to nearest even, and the sum's low bits are the
    // fp16 pattern (0x400, the smallest normal, when it rounds up into the
    // normal range).
    let subnormal = (f32::from_bits(abs) + 0.5).to_bits().wrapping_sub(0x3F00_0000);
    // Normal: re-bias the exponent (127 -> 15) and round the 13 dropped
    // mantissa bits to nearest even; a carry out of the mantissa bumps the
    // exponent, up to infinity.
    let odd = (abs >> 13) & 1;
    let normal = abs.wrapping_sub((127 - 15) << 23).wrapping_add(0x0FFF + odd) >> 13;
    // 2^16 and up (every such value rounds past 65504), infinity, NaN.
    let special = if abs > 0x7F80_0000 { 0x7E00 | ((abs >> 13) & 0x03FF) } else { 0x7C00 };
    let magnitude = if abs < 0x3880_0000 { subnormal } else { normal };
    let magnitude = if abs >= 0x4780_0000 { special } else { magnitude };
    sign | magnitude as u16
}

/// An fp16 bit pattern's `f32` bit pattern, by arithmetic: the definition
/// [`F16_TO_F32`] is built from at compile time.
const fn f16_to_f32_bits(h: u16) -> u32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = (h >> 10) & 0x1F;
    let mant = (h & 0x03FF) as u32;
    match exp {
        0 => {
            if mant == 0 {
                sign
            } else {
                // Subnormal (value = mant * 2^-24): normalize. `shift` brings
                // the leading 1 into the implicit-bit position (bit 10); the
                // largest subnormal (mant 0x3FF) needs one shift and lands at
                // exponent 2^-15.
                let shift = mant.leading_zeros() - 21;
                sign | ((113 - shift) << 23) | (((mant << shift) & 0x03FF) << 13)
            }
        }
        0x1F => sign | 0x7F80_0000 | (mant << 13),
        e => sign | ((e as u32 + 127 - 15) << 23) | (mant << 13),
    }
}

/// Every fp16 bit pattern's `f32` bit pattern (256 KiB): decoding is one
/// load, with no branch on subnormals, zeros or NaNs.
static F16_TO_F32: [u32; 1 << 16] = {
    let mut table = [0u32; 1 << 16];
    let mut h = 0;
    while h < table.len() {
        table[h] = f16_to_f32_bits(h as u16);
        h += 1;
    }
    table
};

/// Convert an fp16 bit pattern to `f32` (exact: every binary16 value is an
/// `f32`). NaN payloads are kept.
#[inline]
pub fn f16_bits_to_f32(h: u16) -> f32 {
    f32::from_bits(F16_TO_F32[usize::from(h)])
}

/// Encode a slice of `f32` into little-endian fp16 bytes.
pub fn encode_f16_le(values: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 2);
    for v in values {
        out.extend_from_slice(&f32_to_f16_bits(*v).to_le_bytes());
    }
    out
}

/// Decode little-endian fp16 bytes into `f32` values.
///
/// # Panics
///
/// Panics if the byte length is odd.
pub fn decode_f16_le(bytes: &[u8]) -> Vec<f32> {
    assert!(bytes.len().is_multiple_of(2), "fp16 byte stream must have even length");
    bytes.chunks_exact(2).map(|c| f16_bits_to_f32(u16::from_le_bytes([c[0], c[1]]))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_exact_values() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 1024.0, -0.25, 65504.0] {
            let h = f32_to_f16_bits(v);
            assert_eq!(f16_bits_to_f32(h), v, "value {v}");
        }
    }

    #[test]
    fn rounding_is_close() {
        for i in 0..1000 {
            let v = (i as f32 - 500.0) * 0.123;
            let back = f16_bits_to_f32(f32_to_f16_bits(v));
            let err = (back - v).abs();
            assert!(err <= v.abs() * 1e-3 + 1e-4, "v={v} back={back}");
        }
    }

    #[test]
    fn overflow_to_inf() {
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1e6)), f32::INFINITY);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(-1e6)), f32::NEG_INFINITY);
    }

    #[test]
    fn nan_preserved() {
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
    }

    #[test]
    fn subnormals_roundtrip() {
        let tiny = 5.96e-8f32; // smallest fp16 subnormal ~ 5.96e-8
        let back = f16_bits_to_f32(f32_to_f16_bits(tiny));
        assert!(back > 0.0 && back < 1e-7);
    }

    /// Arithmetic reference for decoding an fp16 bit pattern, computed in
    /// f64 (exact for every binary16 value) and narrowed at the end.
    fn reference_decode(h: u16) -> f32 {
        let sign = if h & 0x8000 != 0 { -1.0f64 } else { 1.0 };
        let exp = (h >> 10) & 0x1F;
        let mant = f64::from(h & 0x03FF);
        match exp {
            0 => (sign * mant * (-24f64).exp2()) as f32,
            0x1F => {
                if mant == 0.0 {
                    (sign * f64::INFINITY) as f32
                } else {
                    f32::NAN
                }
            }
            e => (sign * (1.0 + mant / 1024.0) * f64::from(i32::from(e) - 15).exp2()) as f32,
        }
    }

    #[test]
    fn decode_matches_arithmetic_reference_exhaustively() {
        // Every one of the 65536 bit patterns, including all subnormals:
        // a wrong normalization start (the bug this pins down halved every
        // subnormal) fails here immediately.
        for h in 0..=u16::MAX {
            let got = f16_bits_to_f32(h);
            let want = reference_decode(h);
            if want.is_nan() {
                assert!(got.is_nan(), "h={h:#06x}: got {got}, want NaN");
            } else {
                assert_eq!(got.to_bits(), want.to_bits(), "h={h:#06x}: got {got}, want {want}");
            }
        }
    }

    /// A case-by-case encoder with one branch per rounding decision: the
    /// reference the branch-free encoder must match.
    fn branchy_encode(x: f32) -> u16 {
        let bits = x.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let mant = bits & 0x007F_FFFF;

        if exp == 0xFF {
            if mant == 0 {
                return sign | 0x7C00;
            }
            return sign | 0x7C00 | 0x0200 | (mant >> 13) as u16;
        }
        let new_exp = exp - 127 + 15;
        if new_exp >= 0x1F {
            return sign | 0x7C00;
        }
        if new_exp <= 0 {
            if new_exp < -10 {
                return sign;
            }
            let mant = mant | 0x0080_0000;
            let shift = (14 - new_exp) as u32;
            let half = 1u32 << (shift - 1);
            let down = mant >> shift;
            let rem = mant & ((1 << shift) - 1);
            let r = if rem > half || (rem == half && down & 1 == 1) { down + 1 } else { down };
            return sign | r as u16;
        }
        let down = mant >> 13;
        let rem = mant & 0x1FFF;
        let half = 0x1000;
        let mut m = down;
        let mut e = new_exp as u32;
        if rem > half || (rem == half && down & 1 == 1) {
            m += 1;
            if m == 0x400 {
                m = 0;
                e += 1;
                if e >= 0x1F {
                    return sign | 0x7C00;
                }
            }
        }
        sign | ((e as u16) << 10) | m as u16
    }

    #[test]
    fn encode_matches_branchy_encoder_on_every_fp16_value_and_midpoint() {
        // Every fp16 value, and for each pair of neighbouring fp16 values
        // the f32 midpoint (a tie) and the f32 values one ulp either side of
        // it: every rounding decision the encoder can make, both signs,
        // subnormals, the overflow edge and every NaN payload included.
        for h in 0..=u16::MAX {
            let v = f16_bits_to_f32(h);
            assert_eq!(f32_to_f16_bits(v), branchy_encode(v), "h={h:#06x}");
            let next = f16_bits_to_f32(h.wrapping_add(1));
            if v.is_finite() && next.is_finite() && v.is_sign_negative() == next.is_sign_negative()
            {
                // Exact in f32: fp16 neighbours differ in their 11th
                // significand bit, and f32 has 24.
                let mid = (v + next) / 2.0;
                for u in [mid.to_bits() - 1, mid.to_bits(), mid.to_bits() + 1] {
                    let x = f32::from_bits(u);
                    assert_eq!(f32_to_f16_bits(x), branchy_encode(x), "{x:e} ({u:#010x})");
                }
            }
        }
        // Past the largest finite fp16 and f32 extremes.
        for x in [65519.99f32, 65520.0, 65535.0, 65536.0, 1e30, f32::MAX, f32::MIN_POSITIVE, 1e-45]
        {
            for x in [x, -x] {
                assert_eq!(f32_to_f16_bits(x), branchy_encode(x), "{x:e}");
            }
        }
    }

    #[test]
    fn encode_matches_branchy_encoder_on_scattered_f32_patterns() {
        // One f32 bit pattern in every 4099 (a prime stride): every
        // exponent, both signs, NaN payloads, and mantissas off the fp16
        // grid.
        let mut u = 0u32;
        loop {
            let x = f32::from_bits(u);
            assert_eq!(f32_to_f16_bits(x), branchy_encode(x), "{u:#010x}");
            match u.checked_add(4099) {
                Some(n) => u = n,
                None => break,
            }
        }
    }

    /// A decoder that normalizes subnormals bit by bit: the reference the
    /// table must match.
    fn loop_decode(h: u16) -> f32 {
        let sign = u32::from(h & 0x8000) << 16;
        let exp = (h >> 10) & 0x1F;
        let mant = u32::from(h & 0x03FF);
        let bits = match exp {
            0 => {
                if mant == 0 {
                    sign
                } else {
                    let mut e = 0i32;
                    let mut m = mant;
                    while m & 0x0400 == 0 {
                        m <<= 1;
                        e -= 1;
                    }
                    m &= 0x03FF;
                    sign | (((127 - 15 + e + 1) as u32) << 23) | (m << 13)
                }
            }
            0x1F => sign | 0x7F80_0000 | (mant << 13),
            e => sign | ((u32::from(e) + 127 - 15) << 23) | (mant << 13),
        };
        f32::from_bits(bits)
    }

    #[test]
    fn table_decode_matches_loop_decoder_bit_for_bit() {
        // All 65536 patterns, NaN payloads and both zeros included: the
        // table gives exactly the reference decoder's bits.
        for h in 0..=u16::MAX {
            assert_eq!(f16_bits_to_f32(h).to_bits(), loop_decode(h).to_bits(), "h={h:#06x}");
        }
        let bytes: Vec<u8> = (0..=u16::MAX).flat_map(u16::to_le_bytes).collect();
        let slice: Vec<u32> = decode_f16_le(&bytes).iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = (0..=u16::MAX).map(|h| loop_decode(h).to_bits()).collect();
        assert_eq!(slice, want, "slice decoder");
    }

    #[test]
    fn roundtrip_is_identity_for_every_pattern() {
        // f16 -> f32 is exact, so encoding back must reproduce the pattern:
        // exactly for every non-NaN, and up to the quiet bit for NaNs
        // (signaling payloads come back quieted, nothing else moves).
        for h in 0..=u16::MAX {
            let back = f32_to_f16_bits(f16_bits_to_f32(h));
            let exp = (h >> 10) & 0x1F;
            let is_nan = exp == 0x1F && h & 0x03FF != 0;
            if is_nan {
                assert_eq!(back, h | 0x0200, "NaN payload must survive up to quieting, h={h:#06x}");
            } else {
                assert_eq!(back, h, "h={h:#06x}");
            }
        }
    }

    #[test]
    fn negative_zero_is_preserved() {
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f16_bits_to_f32(0x8000).to_bits(), (-0.0f32).to_bits());
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
    }

    #[test]
    fn nan_payload_top_bits_survive() {
        // An f32 quiet NaN whose payload sits in the top 10 mantissa bits.
        let payload = 0x2A5u32; // includes the quiet bit (0x200)
        let nan = f32::from_bits(0x7F80_0000 | (payload << 13));
        assert_eq!(f32_to_f16_bits(nan), 0x7C00 | payload as u16);
        // A signaling-style f32 NaN with an all-low payload still narrows to
        // *a* NaN (quiet bit forced), never to infinity.
        let low_payload_nan = f32::from_bits(0x7F80_0001);
        assert_eq!(f32_to_f16_bits(low_payload_nan), 0x7E00);
        let neg_nan = f32::from_bits(0xFF80_0001);
        assert_eq!(f32_to_f16_bits(neg_nan), 0xFE00);
    }

    #[test]
    fn round_to_nearest_even_ties() {
        // 1 + 2^-11 is exactly halfway between 1.0 (0x3C00) and 1.0 + 2^-10
        // (0x3C01): the tie must go to the even mantissa (0x3C00).
        assert_eq!(f32_to_f16_bits(1.0 + 2f32.powi(-11)), 0x3C00);
        // 1 + 3*2^-11 is halfway between 0x3C01 and 0x3C02: even is 0x3C02.
        assert_eq!(f32_to_f16_bits(1.0 + 3.0 * 2f32.powi(-11)), 0x3C02);
        // Just above/below the midpoints round to nearest, not to even.
        assert_eq!(f32_to_f16_bits(1.0 + 2f32.powi(-11) + 2f32.powi(-20)), 0x3C01);
        assert_eq!(f32_to_f16_bits(1.0 + 2f32.powi(-11) - 2f32.powi(-20)), 0x3C00);
    }

    #[test]
    fn round_to_nearest_even_ties_subnormal() {
        // 2^-25 is halfway between 0 and the smallest subnormal 2^-24:
        // ties-to-even goes to 0 (even).
        assert_eq!(f32_to_f16_bits(2f32.powi(-25)), 0x0000);
        // 3 * 2^-25 is halfway between 1 and 2 ulps: even is 2 (0x0002).
        assert_eq!(f32_to_f16_bits(3.0 * 2f32.powi(-25)), 0x0002);
        // Just above the dead zone rounds up to the smallest subnormal.
        assert_eq!(f32_to_f16_bits(2f32.powi(-25) * 1.0001), 0x0001);
        // Negative side mirrors with the sign bit.
        assert_eq!(f32_to_f16_bits(-3.0 * 2f32.powi(-25)), 0x8002);
        // Largest subnormal and the subnormal->normal boundary.
        assert_eq!(f32_to_f16_bits(1023.0 * 2f32.powi(-24)), 0x03FF);
        assert_eq!(f32_to_f16_bits(2f32.powi(-14)), 0x0400);
        // A subnormal tie that carries into the normal range: 2^-14 - 2^-25
        // is halfway between 0x03FF and 0x0400; even is 0x0400.
        assert_eq!(f32_to_f16_bits(2f32.powi(-14) - 2f32.powi(-25)), 0x0400);
    }

    #[test]
    fn rounding_overflow_to_infinity() {
        // Largest finite f16 is 65504; the f32 midpoint to the next step
        // (65520) rounds to even => 0x400 mantissa carry => infinity.
        assert_eq!(f32_to_f16_bits(65504.0), 0x7BFF);
        assert_eq!(f32_to_f16_bits(65520.0), 0x7C00);
        assert_eq!(f32_to_f16_bits(65519.99), 0x7BFF);
    }

    #[test]
    fn slice_codec() {
        let vals = vec![1.0f32, -2.5, 0.125, 7.0];
        let bytes = encode_f16_le(&vals);
        assert_eq!(bytes.len(), 8);
        assert_eq!(decode_f16_le(&bytes), vals);
    }

    #[test]
    #[should_panic(expected = "even length")]
    fn odd_bytes_panic() {
        decode_f16_le(&[1, 2, 3]);
    }
}
