//! The lint policy lives in three manifests: the root `Cargo.toml`'s
//! `[workspace.lints]` tables, `clippy.toml` and the dnvme lib's crate
//! attributes. CI's `cargo clippy --workspace --all-targets -- -D warnings`
//! enforces it, so this test pins the manifests themselves: a weakened
//! level, a dropped path or a member that stops inheriting the tables
//! fails here rather than going quiet.

use std::path::{Path, PathBuf};

/// `text`'s bytes with every comment and every string, byte-string, raw
/// string and char literal blanked, so a `#[` or a bracket inside one is
/// not read as code. Byte offsets are `text`'s.
fn code_only(text: &str) -> Vec<u8> {
    let mut b = text.as_bytes().to_vec();
    let ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut i = 0;
    while i < b.len() {
        let starts_token = i == 0 || !ident(b[i - 1]);
        let rest = &b[i..];
        let end = if rest.starts_with(b"//") {
            rest.iter()
                .position(|&c| c == b'\n')
                .map_or(b.len(), |k| i + k)
        } else if rest.starts_with(b"/*") {
            let (mut depth, mut k) = (0, i);
            loop {
                if b[k..].starts_with(b"/*") {
                    (depth, k) = (depth + 1, k + 2);
                } else if b[k..].starts_with(b"*/") {
                    (depth, k) = (depth - 1, k + 2);
                    if depth == 0 {
                        break k;
                    }
                } else {
                    k += 1;
                }
            }
        } else if b[i] == b'"' {
            let mut k = i + 1;
            while b[k] != b'"' {
                k += if b[k] == b'\\' { 2 } else { 1 };
            }
            k + 1
        } else if b[i] == b'r'
            && (starts_token || (b[i - 1] == b'b' && (i < 2 || !ident(b[i - 2]))))
            && rest[1..].iter().find(|&&c| c != b'#') == Some(&b'"')
        {
            let hashes = rest[1..].iter().take_while(|&&c| c == b'#').count();
            let close = format!("\"{}", "#".repeat(hashes));
            let body = i + 2 + hashes;
            body + text[body..].find(&close).unwrap() + close.len()
        } else if b[i] == b'\'' && rest.get(1) == Some(&b'\\') {
            i + 3 + b[i + 3..].iter().position(|&c| c == b'\'').unwrap() + 1
        } else if b[i] == b'\'' {
            // A char literal, or the quote of a lifetime or label.
            let len = text[i + 1..].chars().next().map_or(0, char::len_utf8);
            if b.get(i + 1 + len) == Some(&b'\'') {
                i + len + 2
            } else {
                i + 1
            }
        } else {
            i + 1
        };
        if end > i + 1 {
            b[i..end].iter_mut().for_each(|c| *c = b' ');
        }
        i = end;
    }
    b
}

/// Every attribute (`#[…]`, `#![…]`) in `text`, whitespace removed.
/// Comments and literals are skipped, so only real attributes count.
fn attributes(text: &str) -> Vec<String> {
    let b = code_only(text);
    let mut out = Vec::new();
    for at in (0..b.len()).filter(|&k| b[k] == b'#') {
        let open = at + 1 + usize::from(b.get(at + 1) == Some(&b'!'));
        if b.get(open) != Some(&b'[') {
            continue;
        }
        let mut depth = 0;
        let close = (open..b.len()).find(|&k| {
            match b[k] {
                b'[' => depth += 1,
                b']' => depth -= 1,
                _ => {}
            }
            depth == 0
        });
        let close = close.unwrap_or_else(|| panic!("unbalanced `#[` at byte {at}"));
        out.push(text[at..=close].split_whitespace().collect());
    }
    out
}

/// Literals and comments that hold `#[` or brackets are not attributes,
/// and do not hide the real ones around them.
#[test]
fn attributes_skip_literals_and_comments() {
    let text = r##"#![deny(clippy::expect_used)]
#[expect(clippy::unwrap_used, reason = "a ] in a reason")]
fn f<'a>(s: &'a str) -> char {
    let _ = "#[expect";
    // #[allow(clippy::unwrap_used)]
    let _ = (r#"#[x"#, br"[", b"\"[");
    /* #[allow(clippy::expect_used)] /* nested */ ] */
    let _ = ('[', b'"', '\'', 'é');
    #[allow(unused)]
    let _ = s;
    '#'
}
"##;
    assert_eq!(
        attributes(text),
        [
            "#![deny(clippy::expect_used)]",
            "#[expect(clippy::unwrap_used,reason=\"a]inareason\")]",
            "#[allow(unused)]",
        ]
    );
}

/// The rules that became lints are only as good as the manifests: the
/// root tables must carry them at a level no attribute can lower
/// (`forbid`) or that fails the build (`deny`, for clippy under CI's
/// `cargo clippy`), `clippy.toml` must list the disallowed paths and
/// types, the dnvme lib must deny `unwrap`/`expect`, and every member
/// must inherit the tables — a new crate cannot opt out by leaving
/// `[lints]` off. `deny` can be lowered, though: no member's `src` may
/// name `await_holding_refcell_ref` at all (a local allow is how two
/// tasks once held one `RefCell` across awaits unreported), and an
/// attribute naming `disallowed_methods`, `disallowed_types`,
/// `unwrap_used` or `expect_used` anywhere in a member must raise it or
/// be an `expect` with a reason, which fails `-D warnings` once the site
/// it excuses is gone.
#[test]
fn workspace_lints_cover_the_retired_rules() {
    let root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read =
        |p: PathBuf| std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
    // Lines of the `[header]` table, comments and blanks dropped.
    let table = |text: &str, header: &str| -> Vec<String> {
        text.lines()
            .map(|l| l.split('#').next().unwrap_or("").trim().to_string())
            .skip_while(|l| l != header)
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty())
            .collect()
    };
    let manifest = read(root.join("Cargo.toml"));
    for (header, want) in [
        ("[workspace.lints.rust]", "unsafe_code = \"forbid\""),
        ("[workspace.lints.rust]", "unused_variables = \"deny\""),
        (
            "[workspace.lints.clippy]",
            "await_holding_refcell_ref = \"deny\"",
        ),
        ("[workspace.lints.clippy]", "disallowed_methods = \"deny\""),
        ("[workspace.lints.clippy]", "disallowed_types = \"deny\""),
        ("[workspace.lints.clippy]", "iter_over_hash_type = \"deny\""),
    ] {
        let lints = table(&manifest, header);
        assert!(
            lints.iter().any(|l| l == want),
            "root manifest lacks `{want}` under {header}: {lints:?}"
        );
    }
    let clippy = read(root.join("clippy.toml"));
    let (methods, types) = clippy
        .split_once("\ndisallowed-types = [")
        .expect("clippy.toml lists disallowed-types");
    let methods = methods
        .split_once("\ndisallowed-methods = [")
        .expect("clippy.toml lists disallowed-methods")
        .1;
    let types = types.split_once("\n]").expect("disallowed-types ends").0;
    for (list, paths) in [
        (
            methods,
            &[
                "std::time::Instant::now",
                "std::time::SystemTime::now",
                "std::time::SystemTime::elapsed",
                "std::thread::sleep",
                "std::thread::spawn",
                "std::thread::scope",
                "std::thread::Builder::spawn",
            ][..],
        ),
        (
            types,
            &[
                "std::sync::Mutex",
                "std::sync::RwLock",
                "std::sync::Condvar",
                "std::collections::HashMap",
                "std::collections::HashSet",
            ][..],
        ),
    ] {
        for path in paths {
            assert!(
                list.contains(&format!("path = \"{path}\"")),
                "clippy.toml does not disallow {path}"
            );
        }
    }
    let keys: Vec<_> = clippy
        .lines()
        .map(|l| {
            l.split('#')
                .next()
                .unwrap_or("")
                .split_whitespace()
                .collect::<String>()
        })
        .collect();
    for key in ["allow-unwrap-in-tests=true", "allow-expect-in-tests=true"] {
        assert!(keys.iter().any(|k| k == key), "clippy.toml lacks `{key}`");
    }
    let core = read(root.join("crates/core/src/lib.rs"));
    assert!(
        attributes(&core)
            .iter()
            .any(|a| a == "#![deny(clippy::unwrap_used,clippy::expect_used)]"),
        "the dnvme lib no longer denies unwrap and expect"
    );
    let mut members = 0;
    // `(file or directory, whether it is a member's src)`; the root
    // `tests/` and `examples/` are targets of a member too.
    let mut sources = vec![(root.join("tests"), false), (root.join("examples"), false)];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let dir = entry.expect("dir entry").path();
        // `crates/shims` holds the workspace-excluded dependency shims.
        if !dir.join("Cargo.toml").is_file() {
            continue;
        }
        members += 1;
        let inherits = table(&read(dir.join("Cargo.toml")), "[lints]");
        assert_eq!(inherits, ["workspace = true"], "{}", dir.display());
        sources.push((dir.join("src"), true));
        for target in ["tests", "examples", "benches"] {
            sources.push((dir.join(target), false));
        }
    }
    let lowerable = [
        "clippy::disallowed_methods",
        "clippy::disallowed_types",
        "clippy::unwrap_used",
        "clippy::expect_used",
    ];
    while let Some((path, src)) = sources.pop() {
        if path.is_dir() {
            for entry in std::fs::read_dir(&path).expect("source dir") {
                sources.push((entry.expect("dir entry").path(), src));
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = read(path.clone());
            for (i, line) in text.lines().enumerate() {
                assert!(
                    !(src && line.contains("clippy::await_holding_refcell_ref")),
                    "{}:{} lowers the lint",
                    path.display(),
                    i + 1
                );
            }
            for attr in attributes(&text) {
                if lowerable.iter().any(|n| attr.contains(n)) {
                    let raises = attr.starts_with("#![deny(") || attr.starts_with("#[deny(");
                    let excused = attr.starts_with("#[expect(") && attr.contains(",reason=");
                    assert!(
                        raises || excused,
                        "{}: `{attr}` lowers the lint; only an `expect` with a reason may \
                         name it",
                        path.display()
                    );
                }
            }
        }
    }
    assert!(members >= 13, "walked {members} member manifests");
}
