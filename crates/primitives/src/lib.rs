//! # proauth-primitives
//!
//! Foundation layer for the `proauth` reproduction of Canetti–Halevi–Herzberg,
//! *"Maintaining Authenticated Communication in the Presence of Break-Ins"*
//! (PODC 1997 / J. Cryptology 2000).
//!
//! The offline dependency policy for this repository forbids external crypto
//! and bignum crates, so everything the upper layers need is built here from
//! scratch:
//!
//! * [`bigint`] — arbitrary-precision unsigned arithmetic (Knuth division,
//!   modular exponentiation, Miller–Rabin).
//! * [`sha256`] — FIPS 180-4 SHA-256, the protocol's random oracle.
//! * [`wire`] — canonical deterministic encoding for everything signed.
//! * [`hex`] — small hex helpers for display and fixtures.
//!
//! # Examples
//!
//! ```
//! use proauth_primitives::{bigint::BigUint, sha256::Sha256};
//!
//! let p = BigUint::from_u64(101);
//! let g = BigUint::from_u64(2);
//! assert_eq!(g.modpow(&BigUint::from_u64(100), &p), BigUint::one());
//! let _digest = Sha256::digest(b"hello");
//! ```

#![forbid(unsafe_code)]

pub mod bigint;
pub mod hex;
pub mod hmac;
pub mod montgomery;
pub mod sha256;
pub mod wire;
