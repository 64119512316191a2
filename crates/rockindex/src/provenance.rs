//! Suggestion provenance: did this config come from the retrieval corpus or
//! from the signature's own tuner?

use std::fmt;

use serde::{DeError, Deserialize, Serialize, Value};

/// How a served suggestion was produced.
///
/// Serialized as the lowercase wire strings `"transferred"` / `"explored"`;
/// a missing field (`null` from a pre-retrieval peer or snapshot) reads as
/// [`Provenance::Explored`], because every pre-retrieval suggestion was by
/// definition an explored one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Provenance {
    /// Served straight from the retrieval corpus with zero runs.
    Transferred,
    /// Served by the signature's own tuner (the pre-retrieval default).
    #[default]
    Explored,
}

impl Provenance {
    /// The wire string (`"transferred"` / `"explored"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Provenance::Transferred => "transferred",
            Provenance::Explored => "explored",
        }
    }

    /// Parse a wire string; unknown strings and `None` read as `Explored`.
    pub fn from_wire(tag: Option<&str>) -> Provenance {
        match tag {
            Some("transferred") => Provenance::Transferred,
            _ => Provenance::Explored,
        }
    }
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for Provenance {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl Deserialize for Provenance {
    fn deserialize_value(value: &Value) -> Result<Self, DeError> {
        match value {
            // Pre-retrieval snapshots and frames have no provenance field:
            // everything they served was explored.
            Value::Null => Ok(Provenance::Explored),
            Value::Str(s) if s == "transferred" => Ok(Provenance::Transferred),
            Value::Str(s) if s == "explored" => Ok(Provenance::Explored),
            other => Err(DeError::expected("Provenance", other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_strings_round_trip() {
        for p in [Provenance::Transferred, Provenance::Explored] {
            let encoded = serde_json::to_string(&p).expect("encodes");
            assert_eq!(encoded, format!("\"{}\"", p.as_str()));
            assert_eq!(serde_json::from_str::<Provenance>(&encoded), Ok(p));
            assert_eq!(Provenance::from_wire(Some(p.as_str())), p);
        }
    }

    #[test]
    fn missing_field_reads_as_explored() {
        assert_eq!(
            Provenance::deserialize_value(&Value::Null),
            Ok(Provenance::Explored)
        );
        assert_eq!(Provenance::from_wire(None), Provenance::Explored);
        assert_eq!(Provenance::from_wire(Some("garbage")), Provenance::Explored);
    }

    #[test]
    fn default_is_explored() {
        assert_eq!(Provenance::default(), Provenance::Explored);
    }
}
