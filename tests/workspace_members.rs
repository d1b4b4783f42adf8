//! Every package under `crates/` is a default member of the root
//! workspace, so the plain `cargo build` and `cargo test` at the root —
//! what CI and a contributor run — build and test it. A crate left out of
//! `default-members` would drop out of that run without a word.

use std::path::Path;

/// The quoted entries of the root manifest's `default-members` list.
fn default_members(manifest: &str) -> Vec<String> {
    let (_, list) = manifest
        .split_once("default-members = [")
        .expect("the root manifest lists default-members");
    let (list, _) = list.split_once(']').expect("the list is closed");
    list.lines()
        .map(|line| line.split('#').next().unwrap_or("").trim())
        .filter_map(|entry| entry.strip_prefix('"')?.split_once('"'))
        .map(|(member, _)| member.to_string())
        .collect()
}

#[test]
fn every_crate_is_a_default_member() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
    let members = default_members(&manifest);
    assert!(members.iter().any(|m| m == "."), "{members:?}");
    let mut crates = 0;
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let path = entry.unwrap().path();
        if !path.join("Cargo.toml").is_file() {
            continue;
        }
        let name = path.file_name().unwrap().to_str().unwrap();
        let member = format!("crates/{name}");
        assert!(
            members.contains(&member),
            "{member} is not in the root default-members: {members:?}"
        );
        crates += 1;
    }
    assert!(crates > 1, "found {crates} crates under crates/");
}
