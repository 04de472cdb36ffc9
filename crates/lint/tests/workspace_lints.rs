//! The workspace lint configuration binds every crate: `unsafe_code`,
//! `missing_docs` and the clippy bans of `[workspace.lints]` and
//! `clippy.toml` apply only to crates that opt in.

#[test]
fn every_crate_opts_into_the_workspace_lints() {
    // `unsafe_code`, `missing_docs` and the clippy bans live in
    // `[workspace.lints]`, which binds only crates that opt in: a new
    // crate without the opt-in would silently escape all of them.
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut missing = Vec::new();
    for entry in std::fs::read_dir(&crates).expect("crates/ is readable") {
        let entry = entry.expect("crates/ entry");
        let Ok(text) = std::fs::read_to_string(entry.path().join("Cargo.toml")) else {
            continue;
        };
        let opted_in = text
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != "[lints]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .any(|l| l.split_whitespace().collect::<String>() == "workspace=true");
        if !opted_in {
            missing.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    assert_eq!(
        missing,
        Vec::<String>::new(),
        "these crates' Cargo.toml lacks `[lints] workspace = true`"
    );
}
