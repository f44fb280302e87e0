//! The `BigUint` type: arbitrary-precision unsigned integers on 64-bit
//! limbs (little-endian limb order), with schoolbook and Karatsuba
//! multiplication and Knuth Algorithm D division.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// Limbs above which multiplication switches to Karatsuba.
const KARATSUBA_THRESHOLD: usize = 24;

/// An arbitrary-precision unsigned integer.
///
/// Invariant: `limbs` never has trailing zero limbs; zero is the empty
/// vector. Limbs are little-endian (`limbs[0]` is least significant).
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value 0.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Builds from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Builds from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut out = BigUint {
            limbs: vec![lo, hi],
        };
        out.normalize();
        out
    }

    /// Builds from little-endian limbs (normalizing trailing zeros).
    pub fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// The little-endian limb slice (no trailing zeros).
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// True iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is 1.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// True iff the value is even (0 is even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().map(|l| l & 1 == 0).unwrap_or(true)
    }

    /// Number of significant bits (0 for the value 0).
    pub fn bits(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() as u64 - 1) * 64 + (64 - top.leading_zeros() as u64),
        }
    }

    /// The `i`-th bit (little-endian).
    pub fn bit(&self, i: u64) -> bool {
        let limb = (i / 64) as usize;
        match self.limbs.get(limb) {
            Some(&l) => (l >> (i % 64)) & 1 == 1,
            None => false,
        }
    }

    /// Converts to `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Converts to `u128` if it fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some(self.limbs[0] as u128 | ((self.limbs[1] as u128) << 64)),
            _ => None,
        }
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    // -- addition ---------------------------------------------------------

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &l) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = l.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        BigUint::from_limbs(out)
    }

    /// Adds a `u64` in place.
    pub fn add_u64(&self, v: u64) -> BigUint {
        self.add(&BigUint::from_u64(v))
    }

    // -- subtraction ------------------------------------------------------

    /// `self - other`, or `None` when the result would be negative.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        Some(BigUint::from_limbs(out))
    }

    /// `self - other`; panics on underflow.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        self.checked_sub(other)
            .expect("BigUint subtraction underflow")
    }

    // -- multiplication ---------------------------------------------------

    /// `self * other` (schoolbook below the Karatsuba threshold of 24 limbs,
    /// Karatsuba above).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        if self.limbs.len().min(other.limbs.len()) >= KARATSUBA_THRESHOLD {
            return self.mul_karatsuba(other);
        }
        self.mul_schoolbook(other)
    }

    fn mul_schoolbook(&self, other: &BigUint) -> BigUint {
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        BigUint::from_limbs(out)
    }

    fn mul_karatsuba(&self, other: &BigUint) -> BigUint {
        let half = self.limbs.len().max(other.limbs.len()) / 2;
        let (a0, a1) = self.split_at(half);
        let (b0, b1) = other.split_at(half);
        let z0 = a0.mul(&b0);
        let z2 = a1.mul(&b1);
        let z1 = a0.add(&a1).mul(&b0.add(&b1)).sub(&z0).sub(&z2);
        z2.shl_limbs(2 * half).add(&z1.shl_limbs(half)).add(&z0)
    }

    fn split_at(&self, k: usize) -> (BigUint, BigUint) {
        if self.limbs.len() <= k {
            (self.clone(), BigUint::zero())
        } else {
            (
                BigUint::from_limbs(self.limbs[..k].to_vec()),
                BigUint::from_limbs(self.limbs[k..].to_vec()),
            )
        }
    }

    fn shl_limbs(&self, k: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let mut limbs = vec![0u64; k];
        limbs.extend_from_slice(&self.limbs);
        BigUint { limbs }
    }

    /// Multiplies by a `u64`.
    pub fn mul_u64(&self, v: u64) -> BigUint {
        if v == 0 || self.is_zero() {
            return BigUint::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u128;
        for &l in &self.limbs {
            let t = (l as u128) * (v as u128) + carry;
            out.push(t as u64);
            carry = t >> 64;
        }
        if carry > 0 {
            out.push(carry as u64);
        }
        BigUint::from_limbs(out)
    }

    // -- shifts -----------------------------------------------------------

    /// `self << n`.
    pub fn shl(&self, n: u64) -> BigUint {
        if self.is_zero() || n == 0 {
            return self.clone();
        }
        let limb_shift = (n / 64) as usize;
        let bit_shift = (n % 64) as u32;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }

    /// `self >> n`.
    pub fn shr(&self, n: u64) -> BigUint {
        let limb_shift = (n / 64) as usize;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = (n % 64) as u32;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        BigUint::from_limbs(out)
    }

    // -- division ---------------------------------------------------------

    /// `(self / other, self % other)`; panics if `other` is zero.
    pub fn divrem(&self, other: &BigUint) -> (BigUint, BigUint) {
        assert!(!other.is_zero(), "division by zero");
        if self < other {
            return (BigUint::zero(), self.clone());
        }
        if other.limbs.len() == 1 {
            let (q, r) = self.divrem_u64(other.limbs[0]);
            return (q, BigUint::from_u64(r));
        }
        self.divrem_knuth(other)
    }

    /// `(self / v, self % v)` for a `u64` divisor; panics if `v` is zero.
    pub fn divrem_u64(&self, v: u64) -> (BigUint, u64) {
        assert!(v != 0, "division by zero");
        let mut out = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            out[i] = (cur / v as u128) as u64;
            rem = cur % v as u128;
        }
        (BigUint::from_limbs(out), rem as u64)
    }

    /// Knuth Algorithm D (TAOCP 4.3.1) for multi-limb divisors.
    fn divrem_knuth(&self, other: &BigUint) -> (BigUint, BigUint) {
        let n = other.limbs.len();
        let m = self.limbs.len() - n;
        // D1: normalize so the divisor's top bit is set.
        let shift = other.limbs[n - 1].leading_zeros() as u64;
        let v = other.shl(shift).limbs;
        let mut u = self.shl(shift).limbs;
        u.resize(self.limbs.len() + 1, 0); // extra high limb for D2..D7

        let mut q = vec![0u64; m + 1];
        let v_top = v[n - 1];
        let v_next = v[n - 2];

        for j in (0..=m).rev() {
            // D3: estimate q̂ from the top two dividend limbs.
            let numer = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
            let mut qhat = numer / v_top as u128;
            let mut rhat = numer % v_top as u128;
            // Correct q̂ using the third limb.
            while qhat >= 1u128 << 64
                || qhat * v_next as u128 > ((rhat << 64) | u[j + n - 2] as u128)
            {
                qhat -= 1;
                rhat += v_top as u128;
                if rhat >= 1u128 << 64 {
                    break;
                }
            }
            // D4: multiply and subtract.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * v[i] as u128 + carry;
                carry = p >> 64;
                let t = u[j + i] as i128 - (p as u64) as i128 - borrow;
                u[j + i] = t as u64;
                borrow = if t < 0 { 1 } else { 0 };
            }
            let t = u[j + n] as i128 - carry as i128 - borrow;
            u[j + n] = t as u64;

            // D5/D6: if we subtracted too much, add back.
            if t < 0 {
                qhat -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let s = u[j + i] as u128 + v[i] as u128 + carry;
                    u[j + i] = s as u64;
                    carry = s >> 64;
                }
                u[j + n] = (u[j + n] as u128).wrapping_add(carry) as u64;
            }
            q[j] = qhat as u64;
        }

        let quotient = BigUint::from_limbs(q);
        let remainder = BigUint::from_limbs(u[..n].to_vec()).shr(shift);
        (quotient, remainder)
    }

    /// `self % other`.
    pub fn rem(&self, other: &BigUint) -> BigUint {
        self.divrem(other).1
    }

    // -- modular arithmetic -----------------------------------------------
    //
    // Dispatch rule: an odd modulus (> 1) routes through the Montgomery
    // kernel (division-free CIOS, see `montgomery.rs`); an even modulus —
    // where no Montgomery form exists — takes the division path. The
    // `*_div` variants run the division path unconditionally and serve as
    // the differential-test oracle for the kernel.

    /// `(self * other) % m` — Montgomery for odd `m`, division otherwise.
    pub fn mulmod(&self, other: &BigUint, m: &BigUint) -> BigUint {
        match crate::montgomery::Montgomery::new(m) {
            Some(ctx) => ctx.mulmod(self, other),
            None => self.mulmod_div(other, m),
        }
    }

    /// `(self * other) % m` via multiply-then-divide, on any modulus: the
    /// reference oracle the Montgomery kernel is differentially tested
    /// against. Oracle surface, not API: hidden from the docs.
    #[doc(hidden)]
    pub fn mulmod_div(&self, other: &BigUint, m: &BigUint) -> BigUint {
        self.mul(other).rem(m)
    }

    /// `self^exp mod m`; panics if `m` is zero. Odd moduli run
    /// square-and-multiply in the Montgomery domain (one conversion in and
    /// out, division-free in between); even moduli fall back to the
    /// division path.
    pub fn modpow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modulus is zero");
        match crate::montgomery::Montgomery::new(m) {
            Some(ctx) => ctx.modpow(self, exp),
            None => self.modpow_div(exp, m),
        }
    }

    /// `self^exp mod m` by square-and-multiply over `mul` + `rem`, on any
    /// modulus: the division-path reference oracle. Oracle surface, not
    /// API: hidden from the docs.
    #[doc(hidden)]
    pub fn modpow_div(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modulus is zero");
        if m.is_one() {
            return BigUint::zero();
        }
        let mut base = self.rem(m);
        let mut result = BigUint::one();
        for i in 0..exp.bits() {
            if exp.bit(i) {
                result = result.mulmod_div(&base, m);
            }
            base = base.mulmod_div(&base, m);
        }
        result
    }

    // -- string conversions -------------------------------------------------

    /// Parses a decimal string.
    pub fn from_decimal(s: &str) -> Option<Self> {
        if s.is_empty() {
            return None;
        }
        let mut out = BigUint::zero();
        for chunk in s.as_bytes().chunks(19) {
            let mut val: u64 = 0;
            for &c in chunk {
                if !c.is_ascii_digit() {
                    return None;
                }
                val = val * 10 + (c - b'0') as u64;
            }
            out = out.mul_u64(10u64.pow(chunk.len() as u32)).add_u64(val);
        }
        Some(out)
    }

    /// Parses a hexadecimal string (no `0x` prefix).
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.is_empty() {
            return None;
        }
        let mut out = BigUint::zero();
        for &c in s.as_bytes() {
            let d = (c as char).to_digit(16)? as u64;
            out = out.shl(4).add_u64(d);
        }
        Some(out)
    }

    /// Formats as decimal.
    pub fn to_decimal(&self) -> String {
        if self.is_zero() {
            return "0".into();
        }
        let mut chunks = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.divrem_u64(10_000_000_000_000_000_000);
            chunks.push(r);
            cur = q;
        }
        let mut s = chunks.pop().unwrap().to_string();
        for c in chunks.into_iter().rev() {
            s.push_str(&format!("{c:019}"));
        }
        s
    }

    /// Big-endian byte encoding (no leading zero bytes; zero encodes as
    /// an empty slice) — the interchange format RSA tooling uses.
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for l in self.limbs.iter().rev() {
            out.extend_from_slice(&l.to_be_bytes());
        }
        let first_nonzero = out.iter().position(|&b| b != 0).unwrap_or(out.len());
        out.drain(..first_nonzero);
        out
    }

    /// Parses a big-endian byte string (inverse of
    /// [`BigUint::to_bytes_be`]; leading zeros are accepted).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len().div_ceil(8));
        for chunk in bytes.rchunks(8) {
            let mut buf = [0u8; 8];
            buf[8 - chunk.len()..].copy_from_slice(chunk);
            limbs.push(u64::from_be_bytes(buf));
        }
        BigUint::from_limbs(limbs)
    }

    /// Formats as lowercase hexadecimal.
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".into();
        }
        let mut s = format!("{:x}", self.limbs.last().unwrap());
        for l in self.limbs.iter().rev().skip(1) {
            s.push_str(&format!("{l:016x}"));
        }
        s
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        non_eq => return non_eq,
                    }
                }
                Ordering::Equal
            }
            non_eq => non_eq,
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_decimal())
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint({})", self.to_decimal())
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

macro_rules! forward_binop {
    ($trait:ident, $method:ident, $impl_method:ident) => {
        impl std::ops::$trait<&BigUint> for &BigUint {
            type Output = BigUint;
            fn $method(self, rhs: &BigUint) -> BigUint {
                BigUint::$impl_method(self, rhs)
            }
        }
        impl std::ops::$trait<BigUint> for BigUint {
            type Output = BigUint;
            fn $method(self, rhs: BigUint) -> BigUint {
                BigUint::$impl_method(&self, &rhs)
            }
        }
    };
}

forward_binop!(Add, add, add);
forward_binop!(Sub, sub, sub);
forward_binop!(Mul, mul, mul);
forward_binop!(Rem, rem, rem);

impl std::ops::Div<&BigUint> for &BigUint {
    type Output = BigUint;
    fn div(self, rhs: &BigUint) -> BigUint {
        self.divrem(rhs).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(s: &str) -> BigUint {
        BigUint::from_decimal(s).unwrap()
    }

    #[test]
    fn construction_and_display() {
        assert_eq!(BigUint::zero().to_decimal(), "0");
        assert_eq!(BigUint::from_u64(12345).to_decimal(), "12345");
        assert_eq!(
            BigUint::from_u128(u128::MAX).to_decimal(),
            u128::MAX.to_string()
        );
        assert_eq!(big("340282366920938463463374607431768211456").bits(), 129);
    }

    #[test]
    fn normalization() {
        let a = BigUint::from_limbs(vec![5, 0, 0]);
        assert_eq!(a.limbs(), &[5]);
        assert_eq!(BigUint::from_limbs(vec![0, 0]), BigUint::zero());
    }

    #[test]
    fn add_with_carries() {
        let a = BigUint::from_u64(u64::MAX);
        let b = BigUint::from_u64(1);
        assert_eq!(a.add(&b).to_decimal(), "18446744073709551616");
        let c = BigUint::from_limbs(vec![u64::MAX, u64::MAX]);
        assert_eq!(c.add(&BigUint::one()).limbs(), &[0, 0, 1],);
    }

    #[test]
    fn sub_with_borrows() {
        let a = big("18446744073709551616"); // 2^64
        assert_eq!(a.sub(&BigUint::one()).to_u64(), Some(u64::MAX));
        assert!(BigUint::from_u64(3)
            .checked_sub(&BigUint::from_u64(5))
            .is_none());
        assert_eq!(a.checked_sub(&a).unwrap(), BigUint::zero());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = BigUint::one().sub(&BigUint::from_u64(2));
    }

    #[test]
    fn mul_small_and_large() {
        assert_eq!(
            BigUint::from_u64(u64::MAX)
                .mul(&BigUint::from_u64(u64::MAX))
                .to_decimal(),
            "340282366920938463426481119284349108225"
        );
        // (2^128 - 1) * (2^128 - 1)
        let a = big("340282366920938463463374607431768211455");
        assert_eq!(
            a.mul(&a).to_decimal(),
            "115792089237316195423570985008687907852589419931798687112530834793049593217025"
        );
    }

    mod karatsuba_threshold_props {
        //! Karatsuba ≡ schoolbook straddling the 24-limb dispatch
        //! threshold: one limb below, exactly at, one above, and far
        //! above — plus asymmetric pairs, where the split point is taken
        //! from the longer operand.
        use super::*;
        use proptest::prelude::*;

        fn limbs(n: usize) -> impl Strategy<Value = BigUint> {
            proptest::collection::vec(any::<u64>(), n..n + 1).prop_map(BigUint::from_limbs)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            #[test]
            fn boundary_23(a in limbs(23), b in limbs(23)) {
                prop_assert_eq!(a.mul_karatsuba(&b), a.mul_schoolbook(&b));
            }

            #[test]
            fn boundary_24(a in limbs(24), b in limbs(24)) {
                prop_assert_eq!(a.mul_karatsuba(&b), a.mul_schoolbook(&b));
            }

            #[test]
            fn boundary_25(a in limbs(25), b in limbs(25)) {
                prop_assert_eq!(a.mul_karatsuba(&b), a.mul_schoolbook(&b));
            }

            #[test]
            fn asymmetric_23_64(a in limbs(23), b in limbs(64)) {
                prop_assert_eq!(a.mul_karatsuba(&b), a.mul_schoolbook(&b));
            }

            #[test]
            fn deep_recursion_64(a in limbs(64), b in limbs(64)) {
                // 64 limbs recurses through the threshold internally.
                prop_assert_eq!(a.mul(&b), a.mul_schoolbook(&b));
            }
        }
    }

    #[test]
    fn mul_karatsuba_matches_schoolbook() {
        // Build a 40-limb number deterministically.
        let mut limbs = Vec::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..40 {
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9).wrapping_add(1);
            limbs.push(x);
        }
        let a = BigUint::from_limbs(limbs.clone());
        limbs.reverse();
        let b = BigUint::from_limbs(limbs);
        assert_eq!(a.mul_karatsuba(&b), a.mul_schoolbook(&b));
    }

    #[test]
    fn shifts() {
        let a = BigUint::from_u64(1);
        assert_eq!(a.shl(64).limbs(), &[0, 1]);
        assert_eq!(a.shl(65).limbs(), &[0, 2]);
        assert_eq!(a.shl(130).shr(130), a);
        assert_eq!(big("12345678901234567890").shr(200), BigUint::zero());
        let b = big("987654321987654321987654321");
        assert_eq!(b.shl(77).shr(77), b);
    }

    #[test]
    fn divrem_small() {
        let (q, r) = big("1000000000000000000000").divrem_u64(7);
        assert_eq!(q.to_decimal(), "142857142857142857142");
        assert_eq!(r, 6);
    }

    #[test]
    fn divrem_multi_limb() {
        let n =
            big("115792089237316195423570985008687907852589419931798687112530834793049593217025");
        let d = big("340282366920938463463374607431768211455");
        let (q, r) = n.divrem(&d);
        assert_eq!(q, d);
        assert_eq!(r, BigUint::zero());
        // Non-trivial remainder.
        let n2 = n.add_u64(12345);
        let (q2, r2) = n2.divrem(&d);
        assert_eq!(q2.mul(&d).add(&r2), n2);
        assert!(r2 < d);
    }

    #[test]
    fn divrem_requires_addback_case() {
        // Trigger the rare D6 add-back path: classic Knuth test values.
        let u = BigUint::from_limbs(vec![0, 0, 0x8000_0000_0000_0000]);
        let v = BigUint::from_limbs(vec![1, 0x8000_0000_0000_0000]);
        let (q, r) = u.divrem(&v);
        assert_eq!(q.mul(&v).add(&r), u);
        assert!(r < v);
    }

    #[test]
    fn division_identity_stress() {
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for ncount in [1usize, 2, 3, 5, 8] {
            for dcount in [1usize, 2, 3, 4] {
                let n = BigUint::from_limbs((0..ncount).map(|_| next()).collect());
                let d = BigUint::from_limbs((0..dcount).map(|_| next()).collect());
                if d.is_zero() {
                    continue;
                }
                let (q, r) = n.divrem(&d);
                assert_eq!(q.mul(&d).add(&r), n, "n={n} d={d}");
                assert!(r < d);
            }
        }
    }

    #[test]
    fn modpow_known_values() {
        let b = BigUint::from_u64(4);
        let e = BigUint::from_u64(13);
        let m = BigUint::from_u64(497);
        assert_eq!(b.modpow(&e, &m).to_u64(), Some(445));
        // Fermat: 2^(p-1) = 1 mod p for prime p.
        let p = big("1000000007");
        assert_eq!(
            BigUint::from_u64(2)
                .modpow(&p.sub(&BigUint::one()), &p)
                .to_u64(),
            Some(1)
        );
    }

    #[test]
    fn modpow_modulus_one() {
        assert_eq!(
            BigUint::from_u64(5).modpow(&BigUint::from_u64(5), &BigUint::one()),
            BigUint::zero()
        );
    }

    #[test]
    fn decimal_roundtrip() {
        for s in [
            "0",
            "1",
            "18446744073709551615",
            "18446744073709551616",
            "123456789012345678901234567890123456789012345678901234567890",
        ] {
            assert_eq!(big(s).to_decimal(), s);
        }
        assert!(BigUint::from_decimal("12a").is_none());
        assert!(BigUint::from_decimal("").is_none());
    }

    #[test]
    fn hex_roundtrip() {
        let a = BigUint::from_hex("deadbeefcafebabe1234567890abcdef").unwrap();
        assert_eq!(a.to_hex(), "deadbeefcafebabe1234567890abcdef");
        assert_eq!(BigUint::from_hex("0").unwrap(), BigUint::zero());
        assert!(BigUint::from_hex("xyz").is_none());
    }

    #[test]
    fn ordering() {
        assert!(big("100") < big("101"));
        assert!(big("18446744073709551616") > big("18446744073709551615"));
        assert_eq!(big("42").cmp(&big("42")), Ordering::Equal);
    }

    #[test]
    fn bit_access() {
        let a = BigUint::from_u64(0b1010);
        assert!(!a.bit(0));
        assert!(a.bit(1));
        assert!(!a.bit(2));
        assert!(a.bit(3));
        assert!(!a.bit(64));
        assert!(a.shl(64).bit(65));
    }

    #[test]
    fn operators() {
        let a = big("1000");
        let b = big("3");
        assert_eq!((&a + &b).to_decimal(), "1003");
        assert_eq!((&a - &b).to_decimal(), "997");
        assert_eq!((&a * &b).to_decimal(), "3000");
        assert_eq!((&a / &b).to_decimal(), "333");
        assert_eq!((&a % &b).to_decimal(), "1");
    }

    #[test]
    fn parity() {
        assert!(BigUint::zero().is_even());
        assert!(!BigUint::one().is_even());
        assert!(big("18446744073709551616").is_even());
    }

    #[test]
    fn bytes_be_roundtrip() {
        for s in [
            "0",
            "1",
            "255",
            "256",
            "18446744073709551615",
            "18446744073709551616",
            "123456789012345678901234567890123456789012345678901234567890",
        ] {
            let v = big(s);
            assert_eq!(BigUint::from_bytes_be(&v.to_bytes_be()), v, "{s}");
        }
    }

    #[test]
    fn bytes_be_wire_shape() {
        assert_eq!(BigUint::zero().to_bytes_be(), Vec::<u8>::new());
        assert_eq!(BigUint::from_u64(1).to_bytes_be(), vec![1]);
        assert_eq!(BigUint::from_u64(0x0102).to_bytes_be(), vec![1, 2]);
        // 2^64 = 01 followed by eight zero bytes.
        let v = BigUint::one().shl(64);
        assert_eq!(v.to_bytes_be(), vec![1, 0, 0, 0, 0, 0, 0, 0, 0]);
        // Leading zeros accepted on parse.
        assert_eq!(
            BigUint::from_bytes_be(&[0, 0, 1, 2]),
            BigUint::from_u64(0x0102)
        );
    }
}
