//! A hand-rolled JSON object writer (the workspace vendors `serde` only
//! as an inert stub). Reading goes through `glap_profile::json::Json`.

/// A quoted, escaped JSON string literal.
pub use glap_profile::json::escape as string;
use glap_profile::json::Json;

/// Builds one JSON object, fields in insertion order.
#[derive(Debug, Default)]
pub struct JsonObj {
    body: String,
}

impl JsonObj {
    pub fn new() -> JsonObj {
        JsonObj::default()
    }

    /// Adds `key` with an already-serialized JSON value.
    pub fn raw(&mut self, key: &str, value: &str) -> &mut JsonObj {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        self.body.push_str(&string(key));
        self.body.push_str(": ");
        self.body.push_str(value);
        self
    }

    pub fn str(&mut self, key: &str, value: &str) -> &mut JsonObj {
        self.raw(key, &string(value))
    }

    /// A number with all its digits (shortest representation that
    /// round-trips); non-finite values have no JSON form and become
    /// `null`.
    pub fn num(&mut self, key: &str, value: f64) -> &mut JsonObj {
        self.raw(key, &number(value))
    }

    pub fn bool(&mut self, key: &str, value: bool) -> &mut JsonObj {
        self.raw(key, if value { "true" } else { "false" })
    }

    pub fn finish(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(", "))
}

/// The fields of a JSON object, or nothing for any other value.
pub fn fields(v: &Json) -> &[(String, Json)] {
    match v {
        Json::Obj(f) => f,
        _ => &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn written_objects_parse_back() {
        let mut inner = JsonObj::new();
        inner.num("value", 1.2034).str("unit", "ms");
        let mut o = JsonObj::new();
        o.bool("correct", true)
            .num("attempted", 7.0)
            .num("bad", f64::NAN)
            .str("quote", "a\"b")
            .raw("m", &inner.finish())
            .raw("list", &array(&[number(1.0), string("x")]));
        let v = Json::parse(&o.finish()).expect("valid JSON");
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("bad"), Some(&Json::Null));
        assert_eq!(v.get("quote").and_then(Json::as_str), Some("a\"b"));
        let m = v.get("m").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.2034));
        assert_eq!(fields(m).len(), 2);
        assert_eq!(v.get("list").and_then(Json::as_arr).unwrap().len(), 2);
    }
}
