//! Numbers in the canonical value order compare by their exact value.
//!
//! `Int` and `Float` share one rank of the total order, so every pair
//! of numbers must compare the way the real numbers they denote do —
//! with `NaN` last and equal to itself — and values that compare equal
//! must hash alike (storage and MMQL's `COLLECT`/`DISTINCT` key hash
//! maps by `Value`). The interesting inputs sit where `f64` stops
//! representing every integer (±2^53) and at the edges of `i64`
//! (±2^63), where a cast through `f64` rounds.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use udbms::core::{Key, Value};

const TWO_53: i64 = 1 << 53;

/// A float `steps` representable values away from `from` (same sign).
fn float_near(from: f64, steps: i64) -> f64 {
    f64::from_bits((from.to_bits() as i64 + steps) as u64)
}

/// A number near one of the interesting boundaries: `kind` picks the
/// boundary and the type, `step` the distance from it.
fn number(kind: u8, step: i64) -> Value {
    let two_63 = 2f64.powi(63);
    match kind {
        0 => Value::Int(step),
        1 => Value::Int(TWO_53 + step),
        2 => Value::Int(-TWO_53 + step),
        3 => Value::Int(i64::MAX - step.abs()),
        4 => Value::Int(i64::MIN + step.abs()),
        5 => Value::Float(float_near(TWO_53 as f64, step)),
        6 => Value::Float(float_near(-(TWO_53 as f64), step)),
        7 => Value::Float(float_near(two_63, step)),
        8 => Value::Float(float_near(-two_63, step)),
        // the rounding cast itself: equal to some Ints, not to others
        9 => Value::Float((TWO_53 + step) as f64),
        10 => Value::Float((i64::MAX - step.abs()) as f64),
        // just below 2^52 floats carry a half
        11 => Value::Float(float_near(2f64.powi(52), step)),
        _ => Value::Float(
            [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                -0.0,
                0.0,
                1.5,
                -1.5,
                0.5,
                -f64::NAN,
            ][(step + 4) as usize],
        ),
    }
}

fn numbers() -> impl Strategy<Value = Value> {
    (0u8..13, -4i64..5).prop_map(|(kind, step)| number(kind, step))
}

/// The exact oracle: a number's class (−∞ < finite < +∞ < NaN) and,
/// for finite values, the value scaled by 2^60 as an `i128`. Scaling
/// by a power of two is exact, and every generated finite value is a
/// multiple of 2^-60 below 2^64 in magnitude, so the key is exact.
fn exact(v: &Value) -> (u8, i128) {
    match *v {
        Value::Int(i) => (1, i128::from(i) << 60),
        Value::Float(f) if f.is_nan() => (3, 0),
        Value::Float(f) if f == f64::INFINITY => (2, 0),
        Value::Float(f) if f == f64::NEG_INFINITY => (0, 0),
        Value::Float(f) => {
            let scaled = f * 2f64.powi(60);
            assert_eq!(scaled.fract(), 0.0, "{f} is not a multiple of 2^-60");
            (1, scaled as i128)
        }
        ref other => panic!("not a number: {other:?}"),
    }
}

fn hash_of(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

#[test]
fn integers_past_two_pow_53_are_distinct_keys() {
    let (a, b) = (Key::int(TWO_53), Key::int(TWO_53 + 1));
    assert_ne!(a, b);
    assert!(a < b);
    // the float image equals exactly one of them
    let image = Value::Float(TWO_53 as f64);
    assert_eq!(Value::Int(TWO_53), image);
    assert_ne!(Value::Int(TWO_53 + 1), image);
    assert!(Value::Int(TWO_53 + 1) > image);
    // 2^63 is one past i64::MAX, not equal to it
    assert!(Value::Int(i64::MAX) < Value::Float(2f64.powi(63)));
    assert_eq!(Value::Int(i64::MIN), Value::Float(-(2f64.powi(63))));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Pairs: the order agrees with the exact oracle, is antisymmetric,
    /// and equal values hash alike.
    #[test]
    fn numeric_order_is_exact_and_hash_agrees(a in numbers(), b in numbers()) {
        let want = exact(&a).cmp(&exact(&b));
        prop_assert_eq!(a.cmp(&b), want, "{:?} vs {:?}", a, b);
        prop_assert_eq!(b.cmp(&a), want.reverse(), "{:?} vs {:?}", b, a);
        if a == b {
            prop_assert_eq!(hash_of(&a), hash_of(&b), "{:?} == {:?} must hash alike", a, b);
        }
    }

    /// Sorting: a sorted run of numbers is sorted under the oracle too,
    /// so the order is total and transitive over these inputs.
    #[test]
    fn sorting_numbers_agrees_with_the_exact_order(
        mut values in prop::collection::vec(numbers(), 2..12),
    ) {
        values.sort();
        for w in values.windows(2) {
            prop_assert!(
                exact(&w[0]).cmp(&exact(&w[1])) != Ordering::Greater,
                "{:?} sorted before {:?}", w[0], w[1]
            );
        }
    }
}
