//! Property tests on the def-use builder and the value lattice: chains
//! and abstract values are generated against a ground-truth environment
//! maintained *while the program is synthesized* (so the oracle is
//! independent of the analyzer's own resolution logic), and consistent
//! renaming of every binding never changes the chain shape. A second
//! family synthesizes interprocedural helper chains with a known
//! host-tag verdict (D13) and checks the summary engine against it.
//! Double-run fingerprint tests pin the full scan as deterministic over
//! the real workspace tree.

use analyzer::dataflow::build_def_use;
use proptest::prelude::*;

const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// Emit a synthetic single-function body from op triples and record the
/// expected def list and use→def shape as it is built. Each op
/// `(tgt, a, b)` becomes `let <tgt> = <a> + <b>;` where an operand is a
/// previously-bound name when one exists (a literal otherwise) — so
/// `let x = x + 1` self-references arise naturally and must resolve to
/// the *old* binding. A final sink call reads every live name.
fn synthesize(ops: &[(u8, u8, u8)], names: &[&str; 4]) -> (String, Vec<String>, Vec<usize>) {
    let mut src = String::from("fn f() {\n");
    let mut last_def: [Option<usize>; 4] = [None; 4];
    let mut def_names = Vec::new();
    let mut shape = Vec::new();
    for &(tgt, a, b) in ops {
        let t = (tgt % 4) as usize;
        let mut operands = Vec::new();
        for o in [a, b] {
            let oi = (o % 5) as usize;
            match last_def.get(oi).copied().flatten() {
                Some(d) => {
                    operands.push(names[oi].to_string());
                    shape.push(d);
                }
                None => operands.push(format!("{}", (o % 7) + 1)),
            }
        }
        src.push_str(&format!(
            "    let {} = {} + {};\n",
            names[t], operands[0], operands[1]
        ));
        last_def[t] = Some(def_names.len());
        def_names.push(names[t].to_string());
    }
    let mut sink_args = Vec::new();
    for (i, d) in last_def.iter().enumerate() {
        if let Some(d) = *d {
            sink_args.push(names[i].to_string());
            shape.push(d);
        }
    }
    src.push_str(&format!("    use_it({});\n}}\n", sink_args.join(", ")));
    (src, def_names, shape)
}

/// The `perm`-th permutation of four fresh names (Lehmer decoding), for
/// the rename-invariance property.
fn renamed(perm: u8) -> [&'static str; 4] {
    let pool = ["omega", "sigma", "kappa", "lambda"];
    let mut avail: Vec<&str> = pool.to_vec();
    let mut out = [""; 4];
    let mut k = (perm as usize) % 24;
    for (i, slot) in out.iter_mut().enumerate() {
        let f = [6, 2, 1, 1][i];
        *slot = avail.remove(k / f);
        k %= f;
    }
    out
}

proptest! {
    /// Every use the builder reports resolves to exactly the def the
    /// generator had in scope when it emitted the mention — the nearest
    /// preceding same-name binding, with self-referencing initializers
    /// reading the shadowed one.
    #[test]
    fn every_use_reaches_its_generating_def(
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..24),
    ) {
        let (src, names, shape) = synthesize(&ops, &NAMES);
        let all = build_def_use(&src);
        prop_assert_eq!(all.len(), 1);
        let du = &all[0].1;
        let got: Vec<String> = du.defs.iter().map(|d| d.name.clone()).collect();
        prop_assert_eq!(&got, &names, "def list mismatch for:\n{}", src);
        prop_assert_eq!(du.shape(), shape, "chain shape mismatch for:\n{}", src);
    }

    /// Consistently renaming every binding (any permutation of a fresh
    /// name set) is invisible to the chains: the use→def shape is
    /// identical token for token.
    #[test]
    fn consistent_renaming_preserves_chain_shape(
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..24),
        perm in 0u8..24,
    ) {
        let (src, _, _) = synthesize(&ops, &NAMES);
        let (src2, _, _) = synthesize(&ops, &renamed(perm));
        let a = build_def_use(&src);
        let b = build_def_use(&src2);
        prop_assert_eq!(a.len(), 1);
        prop_assert_eq!(b.len(), 1);
        prop_assert_eq!(a[0].1.shape(), b[0].1.shape(), "renaming changed the shape:\n{}\n{}", src, src2);
        prop_assert_eq!(a[0].1.defs.len(), b[0].1.defs.len());
    }
}

/// What the lattice must hold for one def, kept while the body is
/// written: the `typed` flag, host tag, constant interval and region
/// length (no op here produces a guard).
#[derive(Clone, Copy, Default)]
struct Expect {
    typed: bool,
    host: Option<&'static str>,
    range: Option<(u64, u64)>,
    region_len: Option<u64>,
}

impl Expect {
    /// A value computed from `v`: it inherits the host tag and region
    /// length of the def it reads, and nothing else.
    fn from(v: &Expect) -> Expect {
        Expect {
            host: v.host,
            region_len: v.region_len,
            ..Expect::default()
        }
    }

    /// The engine's `Debug` digest of a value with these facts.
    fn digest(&self) -> String {
        format!(
            "AbstractVal {{ typed: {}, host: {:?}, range: {:?}, region_len: {:?}, guard: false }}",
            self.typed, self.host, self.range, self.region_len
        )
    }
}

/// Emit a branch-free body from op codes, exercising the abstract
/// value forms the lattice tracks — literals, copies, arithmetic,
/// untyped calls, an NTB translation, a region minted in a host's
/// domain, and the clamp folds (`min`/`max`/`saturating_sub`) — and
/// return it with the digest every def must get, computed as each line
/// is written. No `if`/`match`/`?`/loops: the CFG is one path.
fn straightline_src(ops: &[(u8, u8)], names: &[&str; 4]) -> (String, Vec<String>) {
    let mut src = String::from("fn f(&self, buf: &[u8]) {\n");
    let mut vals: [Option<Expect>; 4] = [None; 4];
    let mut digests = Vec::new();
    let shift = |r: Option<(u64, u64)>, f: &dyn Fn(u64) -> u64| r.map(|(lo, hi)| (f(lo), f(hi)));
    for &(op, tgt) in ops {
        let t = (tgt % 4) as usize;
        let prev = names[(t + 1) % 4];
        let (rhs, e) = match (op % 10, vals[(t + 1) % 4]) {
            (0, _) => {
                let n = u64::from(op % 7) * 64;
                let e = Expect {
                    range: Some((n, n)),
                    ..Expect::default()
                };
                (n.to_string(), e)
            }
            (1, Some(v)) => (
                prev.to_string(),
                Expect {
                    range: v.range,
                    ..Expect::from(&v)
                },
            ),
            (2, Some(v)) => {
                let range = shift(v.range, &|x| x + 8);
                (
                    format!("{prev} + 8"),
                    Expect {
                        range,
                        ..Expect::from(&v)
                    },
                )
            }
            (3, _) => ("self.base.as_u64()".to_string(), Expect::default()),
            (4, Some(v)) => {
                let e = Expect {
                    typed: true,
                    ..Expect::from(&v)
                };
                (format!("self.iommu.map_for_device({prev})"), e)
            }
            (5, Some(v)) => {
                let range = shift(v.range, &|x| x.min(128));
                (
                    format!("{prev}.min(128)"),
                    Expect {
                        range,
                        ..Expect::from(&v)
                    },
                )
            }
            (6, Some(v)) => {
                let range = shift(v.range, &|x| x.max(16));
                (
                    format!("{prev}.max(16)"),
                    Expect {
                        range,
                        ..Expect::from(&v)
                    },
                )
            }
            (7, Some(v)) => {
                let range = shift(v.range, &|x| x.saturating_sub(4));
                (
                    format!("{prev}.saturating_sub(4)"),
                    Expect {
                        range,
                        ..Expect::from(&v)
                    },
                )
            }
            (8, _) => ("buf.len()".to_string(), Expect::default()),
            (9, _) => {
                let e = Expect {
                    typed: true,
                    host: Some("self.host"),
                    range: None,
                    region_len: Some(4096),
                };
                (
                    "MemRegion::new(self.host, PhysAddr(0), 4096)".to_string(),
                    e,
                )
            }
            _ => {
                let e = Expect {
                    range: Some((4096, 4096)),
                    ..Expect::default()
                };
                ("4096".to_string(), e)
            }
        };
        src.push_str(&format!("    let {} = {};\n", names[t], rhs));
        vals[t] = Some(e);
        digests.push(e.digest());
    }
    let live: Vec<&str> = (0..4)
        .filter(|&i| vals[i].is_some())
        .map(|i| names[i])
        .collect();
    src.push_str(&format!("    use_it({});\n}}\n", live.join(", ")));
    (src, digests)
}

proptest! {
    /// On branch-free bodies the CFG has exactly one path, so no merge
    /// fires and every def's abstract value is the transfer function
    /// applied to the values of the defs it reads — which the generator
    /// knows, because it wrote them.
    #[test]
    fn cfg_dataflow_matches_the_synthesized_values_on_branch_free_bodies(
        ops in prop::collection::vec((any::<u8>(), any::<u8>()), 1..20),
    ) {
        let (src, want) = straightline_src(&ops, &NAMES);
        let got = analyzer::dataflow::eval_digest(&src);
        prop_assert_eq!(got, vec![("f".to_string(), want)], "on:\n{}", src);
    }
}

/// Synthesize a call chain `kick → h{len-1} → … → h0`: `h0` mints an
/// address, every layer hands its callee's value up, and `kick` writes
/// it through `self.host`'s fabric domain. `foreign` controls whether
/// `h0` mints in the peer's domain or the local one; `wrap` (1-based
/// layer, `len` = the root itself) passes the value through an NTB
/// translation on the way up. Ground truth is by construction: the sink
/// sees a foreign-domain address iff one was minted and never
/// translated.
fn chain_src(len: usize, wrap: Option<usize>, foreign: bool) -> String {
    let host = if foreign { "self.peer" } else { "self.host" };
    let mut src = format!(
        "impl W {{\n    fn h0(&self) -> DomainAddr {{\n        \
         DomainAddr::new({host}, 0x4000)\n    }}\n"
    );
    let via = |layer: usize, callee: usize| {
        if wrap == Some(layer) {
            format!("self.ntb.translate(self.h{callee}())")
        } else {
            format!("self.h{callee}()")
        }
    };
    for i in 1..len {
        src.push_str(&format!(
            "    fn h{i}(&self) -> DomainAddr {{\n        \
             let v = {};\n        v\n    }}\n",
            via(i, i - 1)
        ));
    }
    src.push_str(&format!(
        "    fn kick(&self, fab: &Fabric) {{\n        \
         let a = {};\n        \
         fab.mem_write(self.host, a, &bytes);\n    }}\n}}\n",
        via(len, len - 1)
    ));
    src
}

proptest! {
    /// Summary soundness over generated helper chains: the
    /// interprocedural D13 fires iff the synthesized program provably
    /// lets a peer-domain address reach the local host's sink — minted
    /// foreign at the leaf, never translated at any layer. Every
    /// translation position and the same-host variant must scan clean.
    #[test]
    fn interproc_verdict_matches_constructed_taint(
        len in 1usize..6,
        wrap_raw in 0usize..8,
        foreign in any::<bool>(),
    ) {
        // `wrap_raw` folds onto 0..=len: 0 = never translated, k =
        // translated at layer k (len = at the root call itself).
        let wrap = match wrap_raw % (len + 1) {
            0 => None,
            k => Some(k),
        };
        let src = chain_src(len, wrap, foreign);
        let findings = analyzer::scan_source(
            "crates/fixture/src/lib.rs",
            &src,
            &[analyzer::Rule::D13],
        );
        let tainted = foreign && wrap.is_none();
        prop_assert_eq!(
            !findings.is_empty(),
            tainted,
            "len={} wrap={:?} foreign={} on:\n{}\n{:?}",
            len, wrap, foreign, src, findings
        );
        if tainted {
            // One hop per call boundary the tag crossed, root first.
            prop_assert_eq!(findings[0].related.len(), len, "{:?}", findings[0].related);
        }
    }
}

/// Double-run determinism: two full scans of the real workspace
/// produce byte-identical finding fingerprints (rule, path, line, and
/// excerpt all included — ordering is part of the contract, since CI
/// diffs annotation output).
#[test]
fn full_scan_fingerprint_is_stable() {
    let root = analyzer::workspace_root();
    let fingerprint = |findings: &[analyzer::Finding]| -> String {
        findings
            .iter()
            .map(|f| format!("{}|{}|{}|{}\n", f.rule.code(), f.path, f.line, f.excerpt))
            .collect()
    };
    let a = analyzer::scan_workspace(&root).expect("first scan");
    let b = analyzer::scan_workspace(&root).expect("second scan");
    assert_eq!(fingerprint(&a.findings), fingerprint(&b.findings));
    assert_eq!(a.unused.len(), b.unused.len());
}
