//! Canonical request envelope and content addressing.
//!
//! A request is a JSON object carrying at least a string `kind` field.
//! Two optional transport fields are stripped before hashing because
//! they do not change *what* is computed:
//!
//! * `budget` — per-request deadline budget in abstract cost units
//!   (admission control compares it against the executor's
//!   deterministic cost estimate).
//!
//! What remains is canonicalised (keys sorted at every level, 2-space
//! pretty layout) and hashed with FNV-1a 64; the hash is the cache key
//! and the `key` field echoed in every response envelope.

use crate::ServeError;
use pvc_core::json::{self, Json};

/// FNV-1a, 64-bit: the canonical content hash for request addressing —
/// the same convention `pvc-store` uses for frame checksums, so request
/// keys and store keys are one vocabulary.
pub use pvc_store::fnv1a64;

/// A parsed, normalised, content-addressed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    canon: Json,
    text: String,
    key: u64,
    budget: Option<u64>,
}

impl Request {
    /// Parses one request document from its JSON text.
    pub fn parse(input: &str) -> Result<Request, ServeError> {
        let doc = json::parse(input)
            .map_err(|e| ServeError::BadRequest(e.to_string()))?;
        Request::from_json(doc)
    }

    /// Builds a request from an already-parsed JSON value.
    pub fn from_json(doc: Json) -> Result<Request, ServeError> {
        let Json::Obj(pairs) = doc else {
            return Err(ServeError::BadRequest(
                "request must be a JSON object".into(),
            ));
        };
        let mut budget = None;
        let mut kept: Vec<(String, Json)> = Vec::with_capacity(pairs.len());
        for (k, v) in pairs {
            if k == "budget" {
                match v {
                    Json::Int(n) if n >= 0 => budget = Some(n as u64),
                    other => {
                        return Err(ServeError::BadRequest(format!(
                            "budget must be a non-negative integer, got {}",
                            other.compact()
                        )))
                    }
                }
            } else {
                kept.push((k, v));
            }
        }
        let canon = Json::Obj(kept).sorted();
        match canon.get("kind") {
            Some(Json::Str(_)) => {}
            _ => {
                return Err(ServeError::BadRequest(
                    "request needs a string 'kind' field".into(),
                ))
            }
        }
        // `canon` is already sorted at every level, so its pretty
        // rendering is the canonical text.
        let text = canon.pretty();
        let key = fnv1a64(text.as_bytes());
        Ok(Request { canon, text, key, budget })
    }

    /// The request kind (validated to exist at parse time).
    pub fn kind(&self) -> &str {
        match self.canon.get("kind") {
            Some(Json::Str(s)) => s,
            _ => unreachable!("validated in from_json"),
        }
    }

    /// Field lookup on the normalised request body.
    pub fn get(&self, field: &str) -> Option<&Json> {
        self.canon.get(field)
    }

    /// The normalised request body (sorted keys, budget stripped).
    pub fn canon(&self) -> &Json {
        &self.canon
    }

    /// Canonical bytes — the hash input.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Content-address of this request.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The content-address rendered for response envelopes.
    pub fn key_hex(&self) -> String {
        format!("fnv64:{:016x}", self.key)
    }

    /// Per-request deadline budget, if the client set one.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn key_ignores_field_order_and_budget() {
        let a = Request::parse(r#"{"kind":"table","id":2}"#).unwrap();
        let b = Request::parse(r#"{"id":2,"kind":"table"}"#).unwrap();
        let c = Request::parse(r#"{"id":2,"kind":"table","budget":5}"#).unwrap();
        assert_eq!(a.key(), b.key(), "field order must not change the key");
        assert_eq!(a.key(), c.key(), "budget is transport, not content");
        assert_eq!(c.budget(), Some(5));
        assert_eq!(a.budget(), None);
        assert_eq!(a.text(), c.text());
        // Nested objects are sorted too, and the text is the canonical
        // rendering of the normalised body.
        let nested = Request::parse(
            r#"{"zeta":{"b":[{"y":1,"x":2}],"a":{"d":3,"c":4}},"kind":"k","alpha":0}"#,
        )
        .unwrap();
        assert_eq!(nested.text(), nested.canon().canonical());
        assert_eq!(
            nested.canon().compact(),
            r#"{"alpha":0,"kind":"k","zeta":{"a":{"c":4,"d":3},"b":[{"x":2,"y":1}]}}"#
        );
    }

    #[test]
    fn distinct_requests_get_distinct_keys() {
        let a = Request::parse(r#"{"kind":"table","id":2}"#).unwrap();
        let b = Request::parse(r#"{"kind":"table","id":3}"#).unwrap();
        assert_ne!(a.key(), b.key());
    }

    #[test]
    fn malformed_requests_are_typed_bad_request() {
        for bad in [
            "not json",
            "[1,2]",
            r#"{"no_kind":1}"#,
            r#"{"kind":7}"#,
            r#"{"kind":"x","budget":-1}"#,
            r#"{"kind":"x","budget":"lots"}"#,
        ] {
            let err = Request::parse(bad).unwrap_err();
            assert_eq!(err.kind(), "bad_request", "{bad}: {err}");
        }
    }

    #[test]
    fn key_hex_is_stable() {
        let r = Request::parse(r#"{"kind":"devices"}"#).unwrap();
        assert!(r.key_hex().starts_with("fnv64:"));
        assert_eq!(r.key_hex().len(), "fnv64:".len() + 16);
        assert_eq!(r.key_hex(), Request::parse(r#"{"kind":"devices"}"#).unwrap().key_hex());
    }
}
