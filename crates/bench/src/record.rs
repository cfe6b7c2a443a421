//! The one record type every `BENCH_*` benchmark emits.
//!
//! A [`Record`] is an experiment name plus an ordered list of fields.
//! Each field is tagged with what it is:
//!
//! - [`Kind::Key`] — identifies the record (section, mode, grid
//!   coordinates, workload size, host parallelism);
//! - [`Kind::Det`] — a measurement that is an exact function of the
//!   seed, byte-stable across reruns on any machine;
//! - [`Kind::Wall`] — a host measurement (wall clock and rates derived
//!   from it), which varies from run to run.
//!
//! Records are written as one JSON object per line ([`json_lines`]), so
//! shell tooling needs no JSON parser, and gates read them back in
//! memory through typed accessors rather than from disk.

use std::fmt;
use std::time::{Duration, Instant};

/// What a field of a [`Record`] is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Identifies the record.
    Key,
    /// An exact function of the seed.
    Det,
    /// A host measurement.
    Wall,
}

/// A field value, with its written form fixed at construction.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// A JSON string.
    Text(String),
    /// A non-negative integer.
    Int(u64),
    /// A real written with a fixed number of decimals.
    Fixed(f64, usize),
    /// A JSON boolean.
    Bool(bool),
}

/// A real written with `decimals` digits after the point.
pub fn fixed(v: f64, decimals: usize) -> Value {
    Value::Fixed(v, decimals)
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Text(s.to_string())
    }
}

macro_rules! int_values {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Int(n as u64)
            }
        }
    )*};
}
int_values!(u32, u64, usize);

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Text(s) => write!(f, "{s:?}"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Fixed(v, decimals) => write!(f, "{v:.decimals$}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// One named, kind-tagged field.
#[derive(Clone, PartialEq, Debug)]
pub struct Field {
    /// The JSON key.
    pub name: &'static str,
    /// What the field is.
    pub kind: Kind,
    /// Its value.
    pub value: Value,
}

/// One benchmark record: an experiment and its ordered fields.
#[derive(Clone, PartialEq, Debug)]
pub struct Record {
    /// The experiment (`bench4` … `bench8`), written first.
    pub experiment: &'static str,
    fields: Vec<Field>,
}

impl Record {
    /// An empty record of `experiment`.
    pub fn new(experiment: &'static str) -> Record {
        Record {
            experiment,
            fields: Vec::new(),
        }
    }

    fn with(mut self, name: &'static str, kind: Kind, value: Value) -> Record {
        self.fields.push(Field { name, kind, value });
        self
    }

    /// Appends an identifying field.
    pub fn key(self, name: &'static str, value: impl Into<Value>) -> Record {
        self.with(name, Kind::Key, value.into())
    }

    /// Appends a field that is an exact function of the seed.
    pub fn det(self, name: &'static str, value: impl Into<Value>) -> Record {
        self.with(name, Kind::Det, value.into())
    }

    /// Appends a host measurement.
    pub fn wall(self, name: &'static str, value: impl Into<Value>) -> Record {
        self.with(name, Kind::Wall, value.into())
    }

    /// Appends the host measurement `wall_ms`: `wall` in milliseconds.
    pub fn wall_ms(self, wall: Duration) -> Record {
        self.wall("wall_ms", fixed(wall.as_secs_f64() * 1e3, 2))
    }

    /// The fields that must reproduce exactly: every one but the
    /// [`Kind::Wall`] measurements.
    pub fn stable(&self) -> Vec<&Field> {
        self.fields
            .iter()
            .filter(|f| f.kind != Kind::Wall)
            .collect()
    }

    fn get(&self, name: &str) -> Result<&Value, String> {
        self.fields
            .iter()
            .find(|f| f.name == name)
            .map(|f| &f.value)
            .ok_or_else(|| format!("{self} lacks {name}"))
    }

    /// Whether field `name` holds `value`.
    pub fn is(&self, name: &str, value: impl Into<Value>) -> bool {
        self.get(name).is_ok_and(|v| *v == value.into())
    }

    /// Field `name` as a number.
    pub fn num(&self, name: &str) -> Result<f64, String> {
        match self.get(name)? {
            Value::Int(n) => Ok(*n as f64),
            Value::Fixed(v, _) => Ok(*v),
            other => Err(format!("{name} is not a number: {other}")),
        }
    }

    /// Field `name` as a boolean.
    pub fn flag(&self, name: &str) -> Result<bool, String> {
        match self.get(name)? {
            Value::Bool(b) => Ok(*b),
            other => Err(format!("{name} is not a boolean: {other}")),
        }
    }
}

/// The record as one JSON object.
impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{\"experiment\":{:?}", self.experiment)?;
        for field in &self.fields {
            write!(f, ",{:?}:{}", field.name, field.value)?;
        }
        f.write_str("}")
    }
}

/// Runs `f`, returning its result and the wall clock it took.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// `n` per second of `wall`.
pub(crate) fn per_sec(n: u64, wall: Duration) -> f64 {
    n as f64 / wall.as_secs_f64().max(1e-9)
}

/// The records as JSON lines, each newline-terminated.
pub fn json_lines(records: &[Record]) -> String {
    records.iter().map(|r| format!("{r}\n")).collect()
}

/// The first record whose fields match every `(name, value)` pair, or an
/// error naming what is missing.
pub fn find<'a>(records: &'a [Record], wanted: &[(&str, Value)]) -> Result<&'a Record, String> {
    records
        .iter()
        .find(|r| wanted.iter().all(|(n, v)| r.is(n, v.clone())))
        .ok_or_else(|| format!("no record matches {wanted:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_json_in_field_order_and_reads_typed_fields() {
        let r = Record::new("bench0")
            .key("mode", "delta")
            .det("calls", 5u32)
            .det("ms", fixed(1.0 / 3.0, 2))
            .det("passed", true)
            .wall("wall_ms", fixed(0.5, 2));
        assert_eq!(
            json_lines(std::slice::from_ref(&r)),
            "{\"experiment\":\"bench0\",\"mode\":\"delta\",\"calls\":5,\"ms\":0.33,\
             \"passed\":true,\"wall_ms\":0.50}\n"
        );
        assert_eq!(r.stable().len(), 4);
        assert_eq!((r.num("calls"), r.flag("passed")), (Ok(5.0), Ok(true)));
        assert!(r.num("mode").is_err() && r.flag("missing").is_err());
        assert!(find(&[r], &[("mode", "full".into())]).is_err());
    }
}
