//! Complex typed data objects.
//!
//! §2.2 of the paper: *"The communication is no longer based on signals
//! defined by bit offsets, but on complex objects, defined by complex data
//! types."* This module provides the schema side ([`DataType`]) and the
//! runtime side ([`Value`]) of those objects, plus a binary codec that the
//! middleware uses for payload serialization.
//!
//! # Examples
//!
//! ```
//! use dynplat_common::value::{DataType, Value};
//!
//! let ty = DataType::Record(vec![
//!     ("speed_kmh".into(), DataType::F64),
//!     ("wheel_ticks".into(), DataType::array(DataType::U32, 4)),
//! ]);
//! let ticks = (1..=4).map(Value::U32).collect();
//! let v = Value::Record(vec![
//!     ("speed_kmh".into(), Value::F64(87.5)),
//!     ("wheel_ticks".into(), Value::Array(ticks)),
//! ]);
//! assert!(v.conforms_to(&ty));
//! let bytes = v.encode();
//! let back = Value::decode(&bytes, &ty)?;
//! assert_eq!(back, v);
//! # Ok::<(), dynplat_common::codec::CodecError>(())
//! ```

use crate::codec::{ByteReader, ByteWriter, CodecError};
use std::fmt;

/// Elements of zero-sized arrays one decode may produce. A zero-sized
/// element consumes no input, so the input length cannot bound how many of
/// them a schema asks for; this cap does.
const MAX_ZERO_SIZED_ELEMENTS: usize = 1 << 16;

/// A self-describing interface data type.
///
/// These are the types interface DSL definitions are written in; the
/// verification engine checks payload compatibility against them and the
/// middleware sizes frames from [`DataType::encoded_size_bounds`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean flag.
    Bool,
    /// Unsigned 8-bit integer.
    U8,
    /// Unsigned 16-bit integer.
    U16,
    /// Unsigned 32-bit integer.
    U32,
    /// Unsigned 64-bit integer.
    U64,
    /// Signed 64-bit integer.
    I64,
    /// IEEE-754 double.
    F64,
    /// UTF-8 string (length-prefixed on the wire).
    Str,
    /// Opaque byte blob (length-prefixed on the wire).
    Blob,
    /// Fixed-size homogeneous array.
    Array(Box<DataType>, usize),
    /// Named-field record (struct).
    Record(Vec<(String, DataType)>),
    /// Closed set of symbolic alternatives, encoded as a `u8` ordinal.
    Enum(Vec<String>),
}

impl DataType {
    /// Convenience constructor for [`DataType::Array`].
    pub fn array(elem: DataType, len: usize) -> DataType {
        DataType::Array(Box::new(elem), len)
    }

    /// Minimum and maximum encoded size in bytes.
    ///
    /// Variable-size leaves ([`DataType::Str`], [`DataType::Blob`]) report a
    /// 4-byte minimum (empty, just the prefix) and a conventional 1 KiB
    /// maximum used for worst-case bandwidth estimation in the verification
    /// engine.
    pub fn encoded_size_bounds(&self) -> (usize, usize) {
        match self {
            DataType::Bool | DataType::U8 | DataType::Enum(_) => (1, 1),
            DataType::U16 => (2, 2),
            DataType::U32 => (4, 4),
            DataType::U64 | DataType::I64 | DataType::F64 => (8, 8),
            DataType::Str | DataType::Blob => (4, 4 + 1024),
            DataType::Array(elem, len) => {
                let (lo, hi) = elem.encoded_size_bounds();
                (lo * len, hi * len)
            }
            DataType::Record(fields) => fields.iter().fold((0, 0), |(alo, ahi), (_, t)| {
                let (lo, hi) = t.encoded_size_bounds();
                (alo + lo, ahi + hi)
            }),
        }
    }

    /// `true` if every value of this type encodes to zero bytes: records
    /// and arrays with no leaf inside. The same as
    /// `encoded_size_bounds().0 == 0`, without its multiplications.
    fn is_zero_sized(&self) -> bool {
        match self {
            DataType::Array(elem, len) => *len == 0 || elem.is_zero_sized(),
            DataType::Record(fields) => fields.iter().all(|(_, t)| t.is_zero_sized()),
            _ => false,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Bool => write!(f, "bool"),
            DataType::U8 => write!(f, "u8"),
            DataType::U16 => write!(f, "u16"),
            DataType::U32 => write!(f, "u32"),
            DataType::U64 => write!(f, "u64"),
            DataType::I64 => write!(f, "i64"),
            DataType::F64 => write!(f, "f64"),
            DataType::Str => write!(f, "string"),
            DataType::Blob => write!(f, "blob"),
            DataType::Array(elem, len) => write!(f, "[{elem}; {len}]"),
            DataType::Record(fields) => {
                write!(f, "{{")?;
                for (i, (name, ty)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{name}: {ty}")?;
                }
                write!(f, "}}")
            }
            DataType::Enum(variants) => {
                write!(f, "enum(")?;
                for (i, v) in variants.iter().enumerate() {
                    if i > 0 {
                        write!(f, "|")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A runtime value of some [`DataType`].
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Boolean.
    Bool(bool),
    /// Unsigned 8-bit.
    U8(u8),
    /// Unsigned 16-bit.
    U16(u16),
    /// Unsigned 32-bit.
    U32(u32),
    /// Unsigned 64-bit.
    U64(u64),
    /// Signed 64-bit.
    I64(i64),
    /// Double-precision float.
    F64(f64),
    /// UTF-8 string.
    Str(String),
    /// Opaque bytes.
    Blob(Vec<u8>),
    /// Fixed-size array.
    Array(Vec<Value>),
    /// Named-field record.
    Record(Vec<(String, Value)>),
    /// Ordinal into an enum's variant list.
    EnumOrdinal(u8),
}

impl Value {
    /// Structural conformance check against a schema.
    pub fn conforms_to(&self, ty: &DataType) -> bool {
        match (self, ty) {
            (Value::Bool(_), DataType::Bool)
            | (Value::U8(_), DataType::U8)
            | (Value::U16(_), DataType::U16)
            | (Value::U32(_), DataType::U32)
            | (Value::U64(_), DataType::U64)
            | (Value::I64(_), DataType::I64)
            | (Value::F64(_), DataType::F64)
            | (Value::Str(_), DataType::Str)
            | (Value::Blob(_), DataType::Blob) => true,
            (Value::Array(items), DataType::Array(elem, len)) => {
                items.len() == *len && items.iter().all(|v| v.conforms_to(elem))
            }
            (Value::Record(vals), DataType::Record(fields)) => {
                vals.len() == fields.len()
                    && vals
                        .iter()
                        .zip(fields)
                        .all(|((vn, v), (fn_, ft))| vn == fn_ && v.conforms_to(ft))
            }
            (Value::EnumOrdinal(ord), DataType::Enum(variants)) => (*ord as usize) < variants.len(),
            _ => false,
        }
    }

    /// Encodes this value to its canonical big-endian wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.encode_into(&mut w);
        w.into_vec()
    }

    /// Appends the canonical encoding of this value to `w`.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        match self {
            Value::Bool(b) => w.put_u8(u8::from(*b)),
            Value::U8(v) => w.put_u8(*v),
            Value::U16(v) => w.put_u16(*v),
            Value::U32(v) => w.put_u32(*v),
            Value::U64(v) => w.put_u64(*v),
            Value::I64(v) => w.put_i64(*v),
            Value::F64(v) => w.put_f64(*v),
            Value::Str(s) => w.put_string(s),
            Value::Blob(b) => w.put_len_prefixed(b),
            Value::Array(items) => {
                for item in items {
                    item.encode_into(w);
                }
            }
            Value::Record(fields) => {
                for (_, v) in fields {
                    v.encode_into(w);
                }
            }
            Value::EnumOrdinal(ord) => w.put_u8(*ord),
        }
    }

    /// Decodes a value of schema `ty` from `input`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the input is truncated, has trailing
    /// bytes, or contains an out-of-range enum ordinal.
    pub fn decode(input: &[u8], ty: &DataType) -> Result<Value, CodecError> {
        let mut r = ByteReader::new(input);
        let v = Self::decode_from(&mut r, ty)?;
        if !r.is_empty() {
            return Err(CodecError::LengthOutOfRange {
                len: input.len(),
                max: r.position(),
            });
        }
        Ok(v)
    }

    /// Decodes a value of schema `ty` from the reader, leaving any trailing
    /// bytes unconsumed.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or invalid input, and
    /// [`CodecError::LengthOutOfRange`] when the schema's arrays of
    /// zero-sized elements ask for more than 65 536 elements in total.
    pub fn decode_from(r: &mut ByteReader<'_>, ty: &DataType) -> Result<Value, CodecError> {
        let mut zero_sized_left = MAX_ZERO_SIZED_ELEMENTS;
        Self::decode_counted(r, ty, &mut zero_sized_left)
    }

    /// [`Value::decode_from`], charging every element of a zero-sized array
    /// against `zero_sized_left`.
    fn decode_counted(
        r: &mut ByteReader<'_>,
        ty: &DataType,
        zero_sized_left: &mut usize,
    ) -> Result<Value, CodecError> {
        Ok(match ty {
            DataType::Bool => Value::Bool(r.take_u8()? != 0),
            DataType::U8 => Value::U8(r.take_u8()?),
            DataType::U16 => Value::U16(r.take_u16()?),
            DataType::U32 => Value::U32(r.take_u32()?),
            DataType::U64 => Value::U64(r.take_u64()?),
            DataType::I64 => Value::I64(r.take_i64()?),
            DataType::F64 => Value::F64(r.take_f64()?),
            DataType::Str => Value::Str(r.take_string()?),
            DataType::Blob => Value::Blob(r.take_len_prefixed(1 << 24)?.to_vec()),
            DataType::Array(elem, len) => {
                // The schema's length is untrusted: reserve no more elements
                // than there are bytes left, so a too-long array ends in
                // `UnexpectedEnd` instead of a huge allocation. Elements that
                // consume no bytes never reach the end, so they are capped.
                if elem.is_zero_sized() {
                    *zero_sized_left =
                        zero_sized_left
                            .checked_sub(*len)
                            .ok_or(CodecError::LengthOutOfRange {
                                len: *len,
                                max: *zero_sized_left,
                            })?;
                }
                let mut items = Vec::with_capacity((*len).min(r.remaining()));
                for _ in 0..*len {
                    items.push(Self::decode_counted(r, elem, zero_sized_left)?);
                }
                Value::Array(items)
            }
            DataType::Record(fields) => {
                let mut vals = Vec::with_capacity(fields.len());
                for (name, ft) in fields {
                    vals.push((name.clone(), Self::decode_counted(r, ft, zero_sized_left)?));
                }
                Value::Record(vals)
            }
            DataType::Enum(variants) => {
                let ord = r.take_u8()?;
                if (ord as usize) >= variants.len() {
                    return Err(CodecError::InvalidValue {
                        field: "enum ordinal",
                        value: u64::from(ord),
                    });
                }
                Value::EnumOrdinal(ord)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sensor_type() -> DataType {
        DataType::Record(vec![
            ("id".into(), DataType::U16),
            (
                "mode".into(),
                DataType::Enum(vec!["off".into(), "eco".into(), "sport".into()]),
            ),
            ("samples".into(), DataType::array(DataType::F64, 3)),
            ("label".into(), DataType::Str),
        ])
    }

    fn sensor_value() -> Value {
        Value::Record(vec![
            ("id".into(), Value::U16(42)),
            ("mode".into(), Value::EnumOrdinal(2)),
            (
                "samples".into(),
                Value::Array(vec![Value::F64(1.0), Value::F64(-2.5), Value::F64(0.0)]),
            ),
            ("label".into(), Value::Str("front-left".into())),
        ])
    }

    #[test]
    fn conformance_accepts_matching_value() {
        assert!(sensor_value().conforms_to(&sensor_type()));
    }

    #[test]
    fn conformance_rejects_wrong_arity_and_types() {
        let ty = sensor_type();
        assert!(!Value::U8(1).conforms_to(&ty));
        let mut v = sensor_value();
        if let Value::Record(fields) = &mut v {
            fields.pop();
        }
        assert!(!v.conforms_to(&ty));
        assert!(!Value::EnumOrdinal(3).conforms_to(&DataType::Enum(vec!["a".into(), "b".into()])));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ty = sensor_type();
        let v = sensor_value();
        let bytes = v.encode();
        assert_eq!(Value::decode(&bytes, &ty).unwrap(), v);
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut bytes = Value::U8(1).encode();
        bytes.push(0);
        assert!(Value::decode(&bytes, &DataType::U8).is_err());
    }

    #[test]
    fn decode_of_oversized_array_schema_is_unexpected_end() {
        let ty = DataType::array(DataType::U8, 1_000_000_000_000_000_000);
        let err = Value::decode(&[1, 2, 3, 4], &ty).unwrap_err();
        assert!(matches!(err, CodecError::UnexpectedEnd { .. }), "got {err}");
    }

    #[test]
    fn decode_of_zero_sized_array_schema_is_bounded() {
        let empty = DataType::Record(Vec::new());
        let huge = DataType::array(empty.clone(), 1_000_000_000_000_000_000);
        let err = Value::decode(&[], &huge).unwrap_err();
        assert!(
            matches!(err, CodecError::LengthOutOfRange { .. }),
            "got {err}"
        );
        // Nested: each level fits the cap, their product does not.
        let nested = DataType::array(DataType::array(empty.clone(), 60_000), 60_000);
        assert!(Value::decode(&[], &nested).is_err());
        // The cap spans the whole decode, not one array: 1000 one-byte
        // elements of 100 zero-sized elements each exceed it.
        let spread = DataType::array(
            DataType::Record(vec![
                ("b".into(), DataType::U8),
                ("z".into(), DataType::array(empty, 100)),
            ]),
            1000,
        );
        assert!(Value::decode(&[0; 1000], &spread).is_err());
    }

    #[test]
    fn small_zero_sized_arrays_round_trip() {
        let empty = DataType::Record(Vec::new());
        for (ty, v) in [
            (
                DataType::array(empty, 3),
                Value::Array(vec![Value::Record(Vec::new()); 3]),
            ),
            (
                DataType::array(DataType::array(DataType::U64, 0), 5),
                Value::Array(vec![Value::Array(Vec::new()); 5]),
            ),
            (
                DataType::Record(vec![
                    ("n".into(), DataType::U8),
                    ("z".into(), DataType::array(DataType::Str, 0)),
                ]),
                Value::Record(vec![
                    ("n".into(), Value::U8(0)),
                    ("z".into(), Value::Array(Vec::new())),
                ]),
            ),
        ] {
            assert_eq!(Value::decode(&v.encode(), &ty).unwrap(), v);
        }
    }

    #[test]
    fn decode_rejects_bad_enum_ordinal() {
        let bytes = vec![9u8];
        let err = Value::decode(&bytes, &DataType::Enum(vec!["x".into()])).unwrap_err();
        assert!(matches!(err, CodecError::InvalidValue { .. }));
    }

    #[test]
    fn size_bounds_compose() {
        let ty = sensor_type();
        let (lo, hi) = ty.encoded_size_bounds();
        // u16 + enum + 3*f64 + string prefix = 2 + 1 + 24 + 4 = 31 minimum.
        assert_eq!(lo, 31);
        assert!(hi >= lo);
        let n = sensor_value().encode().len();
        assert!(n >= lo && n <= hi);
    }

    #[test]
    fn display_is_nonempty_and_structured() {
        let s = sensor_type().to_string();
        assert!(s.contains("samples: [f64; 3]"));
        assert!(s.contains("enum(off|eco|sport)"));
    }
}
