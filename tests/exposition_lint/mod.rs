//! Structural lint of a Prometheus text exposition, shared by the golden
//! fixtures and the live `stird` scrape.

/// Checks that every family in `metrics` is a `# HELP` line, then its
/// `# TYPE` line, then at least one sample of its own (a summary's may
/// also be `_sum` / `_count`), and that no family is declared twice.
/// Returns the family names in order; `context` prefixes failures.
pub fn lint_exposition<'a>(context: &str, metrics: &'a str) -> Vec<&'a str> {
    let mut families: Vec<&str> = Vec::new();
    let mut lines = metrics.lines().peekable();
    while let Some(line) = lines.next() {
        let family = line
            .strip_prefix("# HELP ")
            .and_then(|rest| rest.split(' ').next())
            .unwrap_or_else(|| panic!("{context}: `{line}` outside a family"));
        let declared = lines.next().unwrap_or_default();
        assert!(
            declared.starts_with(&format!("# TYPE {family} ")),
            "{context}: `{family}` has no # TYPE after its # HELP"
        );
        let summary = declared.ends_with(" summary");
        let mut samples = 0;
        while let Some(sample) = lines.next_if(|l| !l.starts_with('#')) {
            let bare = sample.split(['{', ' ']).next().expect("series name");
            let legal = bare == family
                || (summary
                    && [format!("{family}_sum"), format!("{family}_count")]
                        .contains(&bare.to_string()));
            assert!(legal, "{context}: `{bare}` is not a sample of `{family}`");
            samples += 1;
        }
        assert!(samples > 0, "{context}: `{family}` has no sample");
        assert!(
            !families.contains(&family),
            "{context}: `{family}` declared twice"
        );
        families.push(family);
    }
    families
}
