//! Old name of the workspace JSON codec, now [`commint::json`]. The
//! `perfbench` package, a separate build that must compile unchanged
//! against every revision it compares, imports
//! `commprove::jsonv::{self, JValue}`; this alias keeps those names.

pub use commint::json::{parse, Json as JValue, JsonError};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_certificate_shapes() {
        let v = parse("{ \"a\": [1, -2, null], \"b\": { \"c\": \"x\\n\\\"y\" }, \"t\": true }")
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_usize(), Some(1));
        assert!(v.get("a").unwrap().as_arr().unwrap()[2].is_null());
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\n\"y")
        );
        assert_eq!(v.get("t").unwrap().as_bool(), Some(true));
        assert!(matches!(v, JValue::Obj(_)));
    }
}
