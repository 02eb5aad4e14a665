//! Human-readable formatting helpers.

/// Format a large count with thousands separators (`16465930` → `"16 465 930"`),
/// matching the presentation style of the paper's Figure 3 table.
pub fn fmt_count(n: u64) -> String {
    let s = n.to_string();
    let bytes = s.as_bytes();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, b) in bytes.iter().enumerate() {
        if i > 0 && (bytes.len() - i).is_multiple_of(3) {
            out.push(' ');
        }
        out.push(*b as char);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_count_groups_digits() {
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1_000), "1 000");
        assert_eq!(fmt_count(16_465_930), "16 465 930");
        assert_eq!(fmt_count(129_317), "129 317");
    }
}
