//! Per-rule fixture snippets: every rule has a must-trigger case, a
//! must-not-trigger case, and a `// lint:allow(Dxx)` suppression case.

use analyzer::{scan_source, Finding, Rule};

fn codes(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule.code()).collect()
}

fn scan(src: &str, rules: &[Rule]) -> Vec<Finding> {
    scan_source("crates/fixture/src/lib.rs", src, rules)
}

// ------------------------------------------------------------------ D01

#[test]
fn d01_flags_wallclock_time() {
    let src = "use std::time::Instant;\nfn f() -> Instant { Instant::now() }\n";
    assert_eq!(codes(&scan(src, &[Rule::D01])), ["D01"]);
    let src = "fn nap() { std::thread::sleep(d); }\n";
    assert_eq!(codes(&scan(src, &[Rule::D01])), ["D01"]);
}

#[test]
fn d01_ignores_virtual_time() {
    let src = "async fn nap(h: &Handle) { h.sleep(SimDuration::from_micros(5)).await; }\n\
               fn now(h: &Handle) -> SimTime { h.now() }\n";
    assert!(scan(src, &[Rule::D01]).is_empty());
}

#[test]
fn d01_suppressed_inline_and_line_above() {
    let src = "use std::time::Instant; // lint:allow(D01) — host-side profiling\n";
    assert!(scan(src, &[Rule::D01]).is_empty());
    let src = "// lint:allow(D01)\nuse std::time::SystemTime;\n";
    assert!(scan(src, &[Rule::D01]).is_empty());
}

// ------------------------------------------------------------------ D02

#[test]
fn d02_flags_entropy_seeded_rng() {
    let src = "fn f() { let mut rng = rand::thread_rng(); }\n";
    assert_eq!(codes(&scan(src, &[Rule::D02])), ["D02"]);
    let src = "let rng = SmallRng::from_entropy();\n";
    assert_eq!(codes(&scan(src, &[Rule::D02])), ["D02"]);
}

#[test]
fn d02_ignores_seeded_rng() {
    let src = "let rng = SmallRng::seed_from_u64(0x5EED);\n";
    assert!(scan(src, &[Rule::D02]).is_empty());
}

#[test]
fn d02_suppression() {
    let src = "let mut rng = rand::thread_rng(); // lint:allow(D02)\n";
    assert!(scan(src, &[Rule::D02]).is_empty());
}

// ------------------------------------------------------------------ D03

#[test]
fn d03_flags_hashmap_iteration() {
    let src = "use std::collections::HashMap;\n\
               struct S { m: HashMap<u32, u32> }\n\
               impl S { fn f(&self) -> Vec<u32> { self.m.keys().copied().collect() } }\n";
    assert_eq!(codes(&scan(src, &[Rule::D03])), ["D03"]);
}

#[test]
fn d03_flags_for_loop_and_borrow_chains() {
    let src = "let mut m = HashMap::new();\nfor (k, v) in &m { work(k, v); }\n";
    assert_eq!(codes(&scan(src, &[Rule::D03])), ["D03"]);
    let src = "struct S { devices: RefCell<HashMap<Id, Dev>> }\n\
               impl S { fn g(&self) { self.state.borrow().devices.iter().count(); } }\n";
    assert_eq!(codes(&scan(src, &[Rule::D03])), ["D03"]);
}

#[test]
fn d03_flags_through_type_alias() {
    let src = "type DeviceMap = HashMap<(HostId, String), Rc<dyn BlockDevice>>;\n\
               struct R { devices: DeviceMap }\n\
               impl R { fn all(&self) { self.devices.values().count(); } }\n";
    assert_eq!(codes(&scan(src, &[Rule::D03])), ["D03"]);
}

#[test]
fn d03_flags_a_chain_rustfmt_split_over_lines() {
    // The manager's reaper as rustfmt prints it: receiver, borrow and
    // `.iter()` each on a line of their own, so no single line holds both
    // the map's name and the walk.
    let src = "struct M { leases: RefCell<HashMap<usize, SimTime>> }\n\
               impl M {\n\
                   fn expired(&self, now: SimTime) -> Vec<usize> {\n\
                       self\n\
                           .leases\n\
                           .borrow()\n\
                           .iter()\n\
                           .filter(|&(_, &seen)| now.since(seen) > LEASE)\n\
                           .map(|(&slot, _)| slot)\n\
                           .collect()\n\
                   }\n\
               }\n";
    let f = scan(src, &[Rule::D03]);
    assert_eq!(codes(&f), ["D03"]);
    assert_eq!(f[0].line, 7, "finding points at the walk");
    // Near miss: the same chain over a BTreeMap walks in key order.
    assert!(scan(&src.replace("HashMap", "BTreeMap"), &[Rule::D03]).is_empty());
}

#[test]
fn d03_ignores_btreemap_and_keyed_access() {
    let src = "use std::collections::{BTreeMap, HashMap};\n\
               struct S { ordered: BTreeMap<u32, u32>, keyed: HashMap<u32, u32> }\n\
               impl S {\n\
                   fn a(&self) { self.ordered.iter().count(); }\n\
                   fn b(&self) -> Option<&u32> { self.keyed.get(&7) }\n\
                   fn c(&self, v: &[u32]) { v.iter().count(); }\n\
               }\n";
    assert!(scan(src, &[Rule::D03]).is_empty());
}

#[test]
fn d03_suppression() {
    let src = "let m = HashMap::new();\n\
               // lint:allow(D03) — results are sorted right after\n\
               let mut v: Vec<_> = m.keys().collect();\n";
    assert!(scan(src, &[Rule::D03]).is_empty());
}

// ------------------------------------------------------------------ D04

#[test]
fn d04_flags_threads_and_mutexes() {
    let src = "fn f() { std::thread::spawn(move || {}); }\n";
    assert_eq!(codes(&scan(src, &[Rule::D04])), ["D04"]);
    let src = "use std::sync::Mutex;\n";
    assert_eq!(codes(&scan(src, &[Rule::D04])), ["D04"]);
    let src = "struct Q { ready: Mutex<VecDeque<u64>> }\n";
    assert_eq!(codes(&scan(src, &[Rule::D04])), ["D04"]);
}

#[test]
fn d04_ignores_des_spawn_and_refcell() {
    let src = "fn f(h: &Handle) { h.spawn(async move {}); }\n\
               struct S { state: RefCell<State> }\n";
    assert!(scan(src, &[Rule::D04]).is_empty());
}

#[test]
fn d04_suppression() {
    let src = "use std::sync::{Arc, Mutex}; // lint:allow(D04) — waker must be Send\n";
    assert!(scan(src, &[Rule::D04]).is_empty());
}

// ------------------------------------------------------------------ D05

#[test]
fn d05_flags_unwrap_on_fabric_results() {
    let src = "fn f() { let r = fabric.mem_read(h, a, &mut b).unwrap(); }\n";
    assert_eq!(codes(&scan(src, &[Rule::D05])), ["D05"]);
    // Multi-line statement: the unwrap is lines below the DMA call.
    let src = "let _ = self.fabric\n    .dma_write(dev, addr, &data)\n    .await\n    .expect(\"dma\");\n";
    assert_eq!(codes(&scan(src, &[Rule::D05])), ["D05"]);
}

#[test]
fn d05_ignores_handled_results_and_local_unwraps() {
    let src = "if fabric.mem_read(h, a, &mut b).is_err() { return; }\n\
               let top = stack.pop().unwrap();\n";
    assert!(scan(src, &[Rule::D05]).is_empty());
}

#[test]
fn d05_suppression() {
    let src = "let r = fabric.mem_read(h, a, &mut b).unwrap(); // lint:allow(D05)\n";
    assert!(scan(src, &[Rule::D05]).is_empty());
}

// ------------------------------------------------------------------ D07

#[test]
fn d07_flags_read_reachable_from_io_path() {
    // Direct: a non-posted read inside a submit-path function.
    let src = "async fn submit_with_tag(&self, bio: &Bio) -> BioResult {\n\
                   let v = self.fabric.cpu_read_u32(self.host, addr).await?;\n\
                   Ok(v)\n\
               }\n";
    assert_eq!(codes(&scan(src, &[Rule::D07])), ["D07"]);
    // Transitive: the read hides one call deep in the same file.
    let src = "async fn issue(&self, sqe: SqEntry) {\n\
                   self.peek_tail().await;\n\
               }\n\
               async fn peek_tail(&self) {\n\
                   let _ = self.fabric.dma_read(self.dev, addr, &mut buf).await;\n\
               }\n";
    let f = scan(src, &[Rule::D07]);
    assert_eq!(codes(&f), ["D07"]);
    assert_eq!(f[0].line, 5, "finding must point at the read call site");
}

#[test]
fn d07_ignores_reads_off_the_io_path_and_functional_reads() {
    // `connect` is bring-up, not I/O path: the CAP read is legitimate.
    let src = "async fn connect(&self) {\n\
                   let cap = self.fabric.cpu_read_u64(self.host, bar).await?;\n\
               }\n\
               async fn submit(&self, bio: Bio) {\n\
                   self.fabric.mem_read(self.host, addr, &mut staged)?;\n\
                   self.engine.issue(&tag, sqe).await;\n\
               }\n";
    assert!(scan(src, &[Rule::D07]).is_empty());
}

#[test]
fn d07_follows_turbofish_method_calls() {
    // Regression: `probe::<u32>()` is still a method call. Before the
    // turbofish fix the call-graph walk did not recognise `name::<T>(`
    // as a call, dropped the submit→probe edge, and the transitive
    // non-posted read below slipped through the I/O-path scan.
    let src = "async fn submit(&self, bio: Bio) {\n\
                   let v = self.backend.probe::<u32>().await?;\n\
               }\n\
               async fn probe<T>(&self) -> T {\n\
                   self.fabric.cpu_read_u32(self.host, self.bar).await\n\
               }\n";
    let f = scan(src, &[Rule::D07]);
    assert_eq!(codes(&f), ["D07"]);
    assert_eq!(f[0].line, 5, "finding points at the transitive read");
}

#[test]
fn d07_knows_the_payload_spelling_of_a_non_posted_read() {
    // `dma_read_payload` waits out the same round trip as `dma_read`.
    let src = "async fn submit_with_tag(&self, bio: &Bio) -> BioResult {\n\
                   let data = self.fabric.dma_read_payload(self.dev, addr, len).await?;\n\
                   Ok(())\n\
               }\n";
    let f = scan(src, &[Rule::D07]);
    assert_eq!(codes(&f), ["D07"]);
    assert_eq!(f[0].line, 2);
    // Near miss: `mem_snapshot` is the functional read (no round trip),
    // the payload twin of `mem_read` — fine on the I/O path.
    let src = "async fn submit_with_tag(&self, bio: &Bio) -> BioResult {\n\
                   let data = self.fabric.mem_snapshot(self.host, addr, len)?;\n\
                   self.fabric.cpu_write_payload(self.host, part, data).await?;\n\
                   Ok(())\n\
               }\n";
    assert!(scan(src, &[Rule::D07]).is_empty());
}

#[test]
fn d07_suppression() {
    let src = "async fn submit(&self) {\n\
                   // lint:allow(D07) — migration fallback reads the old ring once\n\
                   let v = self.fabric.cpu_read_u32(self.host, addr).await?;\n\
               }\n";
    assert!(scan(src, &[Rule::D07]).is_empty());
}

// ------------------------------------------------------------------ D08

#[test]
fn d08_flags_sqe_store_after_doorbell() {
    // Field store into the SQE after the tail doorbell was rung.
    let src = "async fn oops(&self, qp: &Qp, mut sqe: SqEntry) {\n\
                   qp.sq.ring().await?;\n\
                   sqe.cdw10 = 7;\n\
               }\n";
    let f = scan(src, &[Rule::D08]);
    assert_eq!(codes(&f), ["D08"]);
    assert_eq!(f[0].line, 3);
    // Push after an explicit doorbell MMIO write.
    let src = "async fn oops(&self) {\n\
                   fabric.cpu_write_u32(h, cap.sq_doorbell(0), 1).await?;\n\
                   fabric.cpu_write(h, win, &sqe.encode()).await?;\n\
               }\n";
    assert_eq!(codes(&scan(src, &[Rule::D08])), ["D08"]);
}

#[test]
fn d08_ignores_store_then_ring_order() {
    // The engine's flush discipline: every push precedes the one ring.
    let src = "async fn flush(&self, qp: &Qp) {\n\
                   for sqe in batch {\n\
                       qp.sq.push(&sqe).await?;\n\
                   }\n\
                   qp.sq.ring().await?;\n\
               }\n";
    assert!(scan(src, &[Rule::D08]).is_empty());
    // Stores after a doorbell in a *different* function don't pair up.
    let src = "async fn a(&self) { self.qp.sq.ring().await?; }\n\
               async fn b(&self, mut sqe: SqEntry) { sqe.cdw10 = 7; }\n";
    assert!(scan(src, &[Rule::D08]).is_empty());
}

#[test]
fn d08_knows_the_payload_spellings_of_a_store() {
    // An SQE pushed as an owned payload after the doorbell MMIO is still
    // a store after the ring.
    let src = "async fn oops(&self) {\n\
                   fabric.cpu_write_u32(h, cap.sq_doorbell(0), 1).await?;\n\
                   fabric.cpu_write_payload(h, win, Payload::from(&sqe.encode()[..])).await?;\n\
               }\n";
    let f = scan(src, &[Rule::D08]);
    assert_eq!(codes(&f), ["D08"]);
    assert_eq!(f[0].line, 3);
    // Near miss: a data payload after the ring is ordinary traffic.
    let src = "async fn fine(&self) {\n\
                   fabric.cpu_write_u32(h, cap.sq_doorbell(0), 1).await?;\n\
                   fabric.cpu_write_payload(h, part, data).await?;\n\
               }\n";
    assert!(scan(src, &[Rule::D08]).is_empty());
}

#[test]
fn d08_suppression() {
    let src = "async fn seeded(&self, qp: &Qp) {\n\
                   qp.sq.ring().await?;\n\
                   // lint:allow(D08) — seeded violation for the sanitizer test\n\
                   qp.sq.push(&sqe).await?;\n\
               }\n";
    assert!(scan(src, &[Rule::D08]).is_empty());
}

// ------------------------------------------------------------------ D10

#[test]
fn d10_flags_unhinted_queue_segments() {
    // SQ allocated without the device-side hint.
    let src = "fn f(s: &SmartIo) -> Result<()> {\n\
                   let sq_seg = s.create_segment(host, entries * SQE_SIZE)?;\n\
                   Ok(())\n\
               }\n";
    assert_eq!(codes(&scan(src, &[Rule::D10])), ["D10"]);
    // CQ hinted, but with the wrong (SQ/device-side) hint.
    let src = "fn g(s: &SmartIo) -> Result<()> {\n\
                   let cq_seg = s.create_segment_hinted(host, dev, len, AccessHints::sq())?;\n\
                   Ok(())\n\
               }\n";
    assert_eq!(codes(&scan(src, &[Rule::D10])), ["D10"]);
}

#[test]
fn d10_ignores_hinted_queues_and_plain_buffers() {
    let src = "fn f(s: &SmartIo) -> Result<()> {\n\
                   let sq_seg = s.create_segment_hinted(host, dev, len, AccessHints::sq())?;\n\
                   let acq_seg = s.create_segment_hinted(host, dev, len, AccessHints::cq())?;\n\
                   let mailbox_segment = s.create_segment(host, 4096)?;\n\
                   let seg = s.create_segment(host, 8192)?;\n\
                   Ok(())\n\
               }\n";
    assert!(scan(src, &[Rule::D10]).is_empty());
    // Binding through a match (the placement-ablation shape).
    let src = "fn g(s: &SmartIo) -> Result<()> {\n\
                   let sq_seg = match placement {\n\
                       Placement::DeviceSide => s.create_segment_hinted(host, dev, len, AccessHints::sq())?,\n\
                   };\n\
                   Ok(())\n\
               }\n";
    assert!(scan(src, &[Rule::D10]).is_empty());
}

#[test]
fn d10_suppression() {
    let src = "fn f(s: &SmartIo) -> Result<()> {\n\
                   // lint:allow(D10) — client-side SQ ablation arm\n\
                   let sq_seg = s.create_segment(host, entries * SQE_SIZE)?;\n\
                   Ok(())\n\
               }\n";
    assert!(scan(src, &[Rule::D10]).is_empty());
}

// ------------------------------------------------------------------ D11

#[test]
fn d11_flags_unbounded_admin_rpc_await_on_serve_path() {
    // The manager's serve loop awaiting an admin RPC with no deadline: a
    // dropped admin CQE wedges every client behind the mailbox.
    let src = "async fn serve(self: Rc<Self>) {\n\
                   let ok = admin.delete_io_qpair(qid).await?;\n\
               }\n";
    let f = scan(src, &[Rule::D11]);
    assert_eq!(codes(&f), ["D11"]);
    assert_eq!(f[0].line, 2);
    // Transitive: the unbounded fabric read hides one call deep under an
    // I/O-path root.
    let src = "async fn submit_with_tag(&self, bio: &Bio) -> BioResult {\n\
                   self.slow_probe().await\n\
               }\n\
               async fn slow_probe(&self) -> BioResult {\n\
                   let v = self.fabric.cpu_read_u32(self.host, addr).await?;\n\
                   Ok(v)\n\
               }\n";
    let f = scan(src, &[Rule::D11]);
    assert_eq!(codes(&f), ["D11"]);
    assert_eq!(f[0].line, 5, "finding must point at the blocking await");
}

#[test]
fn d11_ignores_timeout_wrapped_awaits_and_bringup() {
    // The shipped discipline: every serve-path admin RPC goes through
    // simcore::timeout, and the expiry feeds the escalation ladder.
    let src = "async fn serve(self: Rc<Self>) {\n\
                   let r = simcore::timeout(&handle, deadline, admin.abort(qid, cid)).await;\n\
               }\n\
               async fn reap_loop(self: Rc<Self>) {\n\
                   let r = simcore::timeout(\n\
                       &handle,\n\
                       deadline,\n\
                       admin.delete_io_qpair(qid),\n\
                   )\n\
                   .await;\n\
               }\n";
    assert!(scan(src, &[Rule::D11]).is_empty());
    // Bring-up may block: a hung `start`/`connect` fails the scenario
    // before any I/O exists, so it is outside the rule's roots.
    let src = "async fn start(cfg: Config) -> Result<Self> {\n\
                   let granted = admin.set_num_queues(cfg.want_qpairs).await?;\n\
                   Ok(granted)\n\
               }\n";
    assert!(scan(src, &[Rule::D11]).is_empty());
}

#[test]
fn d11_knows_the_payload_spelling_of_a_blocking_read() {
    let src = "async fn submit_with_tag(&self, bio: &Bio) -> BioResult {\n\
                   let data = self.fabric.dma_read_payload(self.dev, addr, len).await?;\n\
                   Ok(())\n\
               }\n";
    let f = scan(src, &[Rule::D11]);
    assert_eq!(codes(&f), ["D11"]);
    assert_eq!(f[0].line, 2);
    // Near miss: the same await under a deadline.
    let src = "async fn submit_with_tag(&self, bio: &Bio) -> BioResult {\n\
                   let data = simcore::timeout(&handle, deadline, self.fabric.dma_read_payload(self.dev, addr, len)).await;\n\
                   Ok(())\n\
               }\n";
    assert!(scan(src, &[Rule::D11]).is_empty());
}

#[test]
fn d11_flags_blocking_await_on_path_skipping_timeout() {
    // The fast path reads the CQE under a deadline; the fallback path
    // issues a bare admin abort that can hang the serve loop forever. A
    // guarded sibling arm does not excuse it.
    let src = "async fn serve_abort(&self, h: &Handle, admin: &mut AdminQueue) -> Result<()> {\n\
                   if self.deadline_armed.get() {\n\
                       timeout(h, self.cfg.admin_timeout, admin.abort(cid)).await?;\n\
                   } else {\n\
                       admin.abort(cid).await?;\n\
                   }\n\
                   Ok(())\n\
               }\n";
    let f = scan(src, &[Rule::D11]);
    assert_eq!(codes(&f), ["D11"]);
    assert_eq!(f[0].line, 5);
    // Nor does a deadline spent earlier on the same path bound a later
    // await.
    let src = "async fn serve(&self, h: &Handle, admin: &mut AdminQueue) -> Result<()> {\n\
                   let lease = timeout(h, self.cfg.admin_timeout, self.heartbeat()).await?;\n\
                   admin.create_io_qpair(qid, depth).await?;\n\
                   Ok(())\n\
               }\n";
    let f = scan(src, &[Rule::D11]);
    assert_eq!(codes(&f), ["D11"]);
    assert_eq!(f[0].line, 3);
}

#[test]
fn d11_suppression() {
    let src = "async fn serve(self: Rc<Self>) {\n\
                   // lint:allow(D11) — seeded hang for the fault-injection test\n\
                   let ok = admin.delete_io_qpair(qid).await?;\n\
               }\n";
    assert!(scan(src, &[Rule::D11]).is_empty());
}

// ------------------------------------------------------------------ D13

#[test]
fn d13_flags_cross_host_address_without_translation() {
    // Fabric sink: an address minted in host_a's domain written through
    // host_b's window with no NTB translation on the path.
    let src = "fn f(&self, fabric: &Fabric) {\n\
                   let addr = DomainAddr::new(host_a, 0x4000);\n\
                   fabric.mem_write(host_b, addr, &bytes);\n\
               }\n";
    let f = scan(src, &[Rule::D13]);
    assert_eq!(codes(&f), ["D13"]);
    assert_eq!(f[0].line, 3);
    // Region sink: a peer-domain region probed with a local address.
    let src = "fn g(&self) {\n\
                   let remote = MemRegion::new(self.peer, PhysAddr(0), 4096);\n\
                   let local = DomainAddr::new(self.host, 0x100);\n\
                   let ok = remote.contains(local);\n\
               }\n";
    assert_eq!(codes(&scan(src, &[Rule::D13])), ["D13"]);
}

#[test]
fn d13_ignores_translated_and_same_host_flows() {
    let src = "fn f(&self, fabric: &Fabric) {\n\
                   let addr = DomainAddr::new(host_a, 0x4000);\n\
                   let mapped = ntb.translate(addr);\n\
                   fabric.mem_write(host_b, mapped, &bytes);\n\
                   fabric.mem_write(host_a, addr, &bytes);\n\
               }\n";
    assert!(scan(src, &[Rule::D13]).is_empty());
}

#[test]
fn d13_knows_the_payload_spellings_of_the_fabric_sinks() {
    // An address minted in host_a's domain adopted into / snapshotted
    // from host_b's memory with no translation on the path.
    for sink in [
        "fabric.mem_adopt(host_b, addr, data);",
        "let data = fabric.mem_snapshot(host_b, addr, 4096);",
    ] {
        let src = format!(
            "fn f(&self, fabric: &Fabric) {{\n\
                 let addr = DomainAddr::new(host_a, 0x4000);\n\
                 {sink}\n\
             }}\n"
        );
        let f = scan(&src, &[Rule::D13]);
        assert_eq!(codes(&f), ["D13"], "{sink}");
        assert_eq!(f[0].line, 3);
    }
    // Near miss: translated, or the address's own host.
    let src = "fn f(&self, fabric: &Fabric) {\n\
                   let addr = DomainAddr::new(host_a, 0x4000);\n\
                   let mapped = ntb.translate(addr);\n\
                   fabric.mem_adopt(host_b, mapped, data);\n\
                   let data = fabric.mem_snapshot(host_a, addr, 4096);\n\
               }\n";
    assert!(scan(src, &[Rule::D13]).is_empty());
}

#[test]
fn d13_return_position_translators_mint_no_tag() {
    // `slot` hands the peer's address back untranslated on its direct
    // arm and translated on its tail. The translation call mints no tag
    // of its own — `self.host`, its first argument, would hide the
    // direct arm — so the peer tag is what reaches `kick`'s sink.
    let src = "impl W {\n\
                   fn peer_slot(&self) -> DomainAddr {\n\
                       DomainAddr::new(self.peer, 0x4000)\n\
                   }\n\
                   fn slot(&self, direct: bool) -> DomainAddr {\n\
                       let s = self.peer_slot();\n\
                       if direct {\n\
                           return s;\n\
                       }\n\
                       self.smartio.map_for_cpu(self.host, s)\n\
                   }\n\
                   fn kick(&self, fab: &Fabric) {\n\
                       let a = self.slot(true);\n\
                       fab.mem_write(self.host, a, &bytes);\n\
                   }\n\
               }\n";
    let f = scan(src, &[Rule::D13]);
    assert_eq!(codes(&f), ["D13"]);
    assert_eq!(f[0].line, 14);
    assert!(
        f[0].related.iter().any(|r| r.note.contains("`self.peer`")),
        "{:?}",
        f[0].related
    );
    // Near miss: every return translates. The translated value carries
    // no tag — in particular not the name of the argument it translated.
    let src = "impl W {\n\
                   fn peer_slot(&self) -> DomainAddr {\n\
                       DomainAddr::new(self.peer, 0x4000)\n\
                   }\n\
                   fn slot(&self) -> DomainAddr {\n\
                       let s = self.peer_slot();\n\
                       self.ntb.translate(s)\n\
                   }\n\
                   fn kick(&self, fab: &Fabric) {\n\
                       let a = self.slot();\n\
                       fab.mem_write(self.host, a, &bytes);\n\
                   }\n\
               }\n";
    assert!(scan(src, &[Rule::D13]).is_empty());
}

#[test]
fn d13_suppression() {
    let src = "fn f(&self, fabric: &Fabric) {\n\
                   let addr = DomainAddr::new(host_a, 0x4000);\n\
                   // lint:allow(D13) — loopback probe writes the raw peer window\n\
                   fabric.mem_write(host_b, addr, &bytes);\n\
               }\n";
    assert!(scan(src, &[Rule::D13]).is_empty());
}

// ------------------------------------------------------------------ D15

#[test]
fn d15_flags_slice_bounds_exceeding_region_length() {
    // Literal offset at the region's end: off + len = 4104 > 4096.
    let src = "fn f(&self) {\n\
                   let region = MemRegion::new(self.host, PhysAddr(0), 4096);\n\
                   let tail = region.slice(4096, 8);\n\
               }\n";
    let f = scan(src, &[Rule::D15]);
    assert_eq!(codes(&f), ["D15"]);
    assert_eq!(f[0].line, 3);
    // Interval arithmetic: an inclusive loop bound pushes the last
    // entry one stride past the ring (max off 64*64 + 64 = 4160).
    let src = "const SQE: u64 = 64;\n\
               fn f(&self) {\n\
                   let ring = MemRegion::new(self.host, PhysAddr(0), 4096);\n\
                   for i in 0..=64 {\n\
                       let e = ring.slice(i * SQE, SQE);\n\
                   }\n\
               }\n";
    assert_eq!(codes(&scan(src, &[Rule::D15])), ["D15"]);
}

#[test]
fn d15_ignores_in_bounds_and_unknown_ranges() {
    // The exclusive-bound version of the same loop stays in bounds
    // (max off 63*64 + 64 = 4096 exactly), and dynamic offsets with no
    // static interval are honestly unknown, not flagged.
    let src = "const SQE: u64 = 64;\n\
               fn f(&self) {\n\
                   let ring = MemRegion::new(self.host, PhysAddr(0), 4096);\n\
                   for i in 0..64 {\n\
                       let e = ring.slice(i * SQE, SQE);\n\
                   }\n\
                   let d = ring.slice(dynamic_off, 8);\n\
               }\n";
    assert!(scan(src, &[Rule::D15]).is_empty());
}

#[test]
fn d15_suppression() {
    let src = "fn f(&self) {\n\
                   let region = MemRegion::new(self.host, PhysAddr(0), 4096);\n\
                   // lint:allow(D15) — deliberate overrun for the sanitizer seed\n\
                   let tail = region.slice(4096, 8);\n\
               }\n";
    assert!(scan(src, &[Rule::D15]).is_empty());
}

// ------------------------------------------------------------------ D17

#[test]
fn d17_flags_plain_alloc_on_the_datapath() {
    // Directly inside a submit root …
    let src = "fn submit(&self, bio: Bio) {\n\
                   let staging = self.fabric.alloc(self.host, len).unwrap();\n\
               }\n";
    assert_eq!(codes(&scan(src, &[Rule::D17])), ["D17"]);
    // … and through an intra-file helper the root calls.
    let src = "fn write_blocks(&self, lba: u64) { self.stage(lba); }\n\
               fn stage(&self, lba: u64) {\n\
                   let buf = fabric.alloc(host, 4096).unwrap();\n\
               }\n";
    assert_eq!(codes(&scan(src, &[Rule::D17])), ["D17"]);
}

#[test]
fn d17_ignores_hinted_and_off_path_allocations() {
    // alloc_hinted is the sanctioned datapath allocator.
    let src = "fn submit(&self, bio: Bio) {\n\
                   let buf = smartio.alloc_hinted(host, dev, len, AccessHints::buffer());\n\
               }\n";
    assert!(scan(src, &[Rule::D17]).is_empty());
    // Bring-up code allocates bounce partitions legally: `connect` is
    // not a datapath root.
    let src = "async fn connect(&self) {\n\
                   let pool = self.fabric.alloc(self.host, pool_len).unwrap();\n\
               }\n";
    assert!(scan(src, &[Rule::D17]).is_empty());
    // A non-fabric `alloc` receiver (qid pool, tag set) is not a buffer.
    let src = "fn submit(&self) { let qid = self.qids.alloc(slot); }\n";
    assert!(scan(src, &[Rule::D17]).is_empty());
}

#[test]
fn d17_suppression() {
    let src = "fn submit_probe(&self) {\n\
                   // lint:allow(D17) — one-shot diagnostic buffer, never hot\n\
                   let buf = self.fabric.alloc(self.host, 512).unwrap();\n\
               }\n";
    assert!(scan(src, &[Rule::D17]).is_empty());
}

// ----------------------------------------------------- scanner hygiene

#[test]
fn patterns_inside_strings_and_comments_do_not_trigger() {
    let src = "// std::thread::sleep would break the virtual clock\n\
               /* thread_rng() is banned */\n\
               let msg = \"no std::time::Instant in sim code\";\n\
               let raw = r#\"Mutex<VecDeque<TaskId>>\"#;\n";
    assert!(scan(src, &[Rule::D01, Rule::D02, Rule::D04]).is_empty());
}

#[test]
fn findings_carry_location_and_excerpt() {
    let src = "fn ok() {}\nuse std::time::Instant;\n";
    let f = scan(src, &[Rule::D01]);
    assert_eq!(f.len(), 1);
    assert_eq!(f[0].line, 2);
    assert!(f[0].excerpt.contains("std::time::Instant"));
    assert!(f[0].to_string().contains("crates/fixture/src/lib.rs:2"));
}

// ----------------------------------------------------- strict-allow mode

#[test]
fn strict_allow_flags_unused_suppression() {
    // A suppression on a line where nothing fires is dead weight.
    let src = "fn f() {\n\
                   let x = 1; // lint:allow(D04)\n\
                   x\n\
               }\n";
    let scan = analyzer::scan_source_strict("crates/fixture/src/lib.rs", src, &[Rule::D04]);
    assert!(scan.findings.is_empty());
    assert_eq!(scan.unused_allows, vec![(2, "D04".to_string())]);
}

#[test]
fn strict_allow_accepts_working_suppression() {
    let src = "// lint:allow(D04) — intentional\n\
               static Q: Mutex<u32> = Mutex::new(0);\n";
    let scan = analyzer::scan_source_strict("crates/fixture/src/lib.rs", src, &[Rule::D04]);
    assert!(scan.findings.is_empty());
    assert!(scan.unused_allows.is_empty());
}

#[test]
fn strict_allow_ignores_prose_placeholders() {
    // `Dxx` in documentation is not a rule code and must not be flagged.
    let src = "//! Suppress with a `// lint:allow(Dxx)` comment.\nfn f() {}\n";
    let scan = analyzer::scan_source_strict("crates/fixture/src/lib.rs", src, &[Rule::D04]);
    assert!(scan.unused_allows.is_empty());
}

#[test]
fn strict_allow_reports_each_code_of_a_multi_code_comment() {
    // D04 fires on the next line, D01 never does: only D01 is unused.
    let src = "// lint:allow(D04, D01)\n\
               static Q: Mutex<u32> = Mutex::new(0);\n";
    let scan =
        analyzer::scan_source_strict("crates/fixture/src/lib.rs", src, &[Rule::D01, Rule::D04]);
    assert!(scan.findings.is_empty());
    assert_eq!(scan.unused_allows, vec![(1, "D01".to_string())]);
}

#[test]
fn strict_allow_flags_dead_config_entries() {
    // One live entry (covers a real D04 finding) and one dead glob.
    let config = analyzer::Config::parse(
        "[allow]\nD04 = [\"crates/fixture\"]\nD01 = [\"crates/ghost/**\"]\n",
    );
    let files = vec![(
        "crates/fixture/src/lib.rs".to_string(),
        "static Q: Mutex<u32> = Mutex::new(0);\n".to_string(),
    )];
    let report = analyzer::strict_scan_files(&config, &files);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.unused.len(), 1, "{:?}", report.unused);
    assert_eq!(report.unused[0].path, "analyzer.toml");
    assert!(report.unused[0].detail.contains("crates/ghost/**"));
    assert!(report.unused[0].detail.contains("D01"));
}

#[test]
fn strict_allow_findings_survive_uncovered() {
    // A finding with no covering entry still reports in strict mode.
    let config = analyzer::Config::parse("[allow]\n");
    let files = vec![(
        "crates/fixture/src/lib.rs".to_string(),
        "static Q: Mutex<u32> = Mutex::new(0);\n".to_string(),
    )];
    let report = analyzer::strict_scan_files(&config, &files);
    assert_eq!(codes(&report.findings), vec!["D04"]);
    assert!(report.unused.is_empty());
}

#[test]
fn two_code_allow_suppresses_both_findings() {
    // The SQE store is late (after a ring: D08) and goes through host_b's
    // domain with an address minted in host_a's (D13); one comment naming
    // both codes allows both, and neither code is left unused.
    let src = "async fn submit(&self, fabric: &Fabric, qp: &QPair, sqe: Sqe) -> Result<()> {\n\
                   qp.sq.ring().await?;\n\
                   let slot = DomainAddr::new(host_a, 0x4000);\n\
                   // lint:allow(D08, D13)\n\
                   fabric.mem_write(host_b, slot, &sqe.encode());\n\
                   Ok(())\n\
               }\n";
    let files = vec![("crates/nvme/src/fixture.rs".to_string(), src.to_string())];
    let report = analyzer::strict_scan_files(&analyzer::Config::parse("[allow]\n"), &files);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert!(report.unused.is_empty(), "{:?}", report.unused);
}

// ----------------------------------------------------- retired codes
//
// D06, D09, D12, D14 and D18 guard nothing any more — rustc rejects the
// code they flagged (README, "retired — enforced by"; the witnesses are
// the `compile_fail` doctests on `Fabric::dma_write` and `nvme::engine`
// and `workspace_lints_cover_the_retired_rules` below). D16 is clippy's
// `await_holding_refcell_ref`, denied in the same manifest table; D25's
// sites are D11's; D22 never saw the one function that stores an SQE.
// What is left to pin per code is the opposite of the old suppression
// fixture: its `lint:allow` names no rule, so it is never honoured
// silently — `--strict-allow` reports the comment, and an `analyzer.toml`
// entry under the code is a dead entry.

/// Each `(line of the comment, source)` is a former suppression fixture.
fn assert_retired(code: &str, sources: &[(usize, &str)]) {
    assert!(analyzer::explain(code).is_none(), "{code} is still a rule");
    let config = analyzer::Config::parse(&format!("[allow]\n{code} = [\"crates/nvme\"]\n"));
    for &(line, src) in sources {
        let files = vec![("crates/nvme/src/fixture.rs".to_string(), src.to_string())];
        let report = analyzer::strict_scan_files(&config, &files);
        let unused: Vec<String> = report.unused.iter().map(|u| u.to_string()).collect();
        assert_eq!(
            unused,
            [
                format!(
                    "strict-allow crates/nvme/src/fixture.rs:{line}: lint:allow({code}) names \
                     no rule (retired or mistyped) — remove it"
                ),
                format!(
                    "strict-allow analyzer.toml: [allow] entry {code} = \"crates/nvme\" covers \
                     no finding — remove it"
                ),
            ],
            "{src}"
        );
    }
}

#[test]
fn d06_suppression() {
    let inline = "let sq = SqRing::new(&fabric, ring, db, entries); // lint:allow(D06)\n";
    let above = "// lint:allow(D06) — ring-level unit test\nuse nvme::queue::SqRing;\n";
    assert_retired("D06", &[(1, inline), (1, above)]);
}

#[test]
fn d09_suppression() {
    let src = "// lint:allow(D09) — FFI boundary audited in review\n\
               fn f(p: *mut u8) {}\n";
    assert_retired("D09", &[(1, src)]);
}

#[test]
fn d12_suppression() {
    let src = "async fn f(&self) {\n\
                   // lint:allow(D12) — wire-format register takes a raw qword\n\
                   fabric.cpu_write_u32(h, self.db.as_u64(), tail).await?;\n\
               }\n";
    assert_retired("D12", &[(2, src)]);
}

#[test]
fn d14_suppression() {
    let src = "async fn f(&self) {\n\
                   // lint:allow(D14) — fire-and-forget flush, pool is idempotent\n\
                   let status = self.engine.io_raw(qid, sqe).await;\n\
                   self.pool.free(tag);\n\
               }\n";
    assert_retired("D14", &[(2, src)]);
}

#[test]
fn d16_suppression() {
    let src = "async fn f(&self) {\n\
                   // lint:allow(D16) — exclusive reset path, no reentrant borrow\n\
                   let admin = self.admin.borrow_mut();\n\
                   self.handle.sleep(d).await;\n\
                   admin.replace(fresh);\n\
               }\n";
    assert_retired("D16", &[(2, src)]);
}

#[test]
fn d22_suppression() {
    let src = "async fn seeded(&self, qp: &Qp, sqe: SqEntry) -> Result<()> {\n\
                   // lint:allow(D22) — seeded violation for the oracle test\n\
                   qp.sq.push(&sqe).await?;\n\
                   if self.paused.get() {\n\
                       return Ok(());\n\
                   }\n\
                   qp.sq.ring().await?;\n\
                   Ok(())\n\
               }\n";
    assert_retired("D22", &[(2, src)]);
}

#[test]
fn d25_suppression() {
    let src = "async fn serve_abort(&self, h: &Handle, admin: &mut AdminQueue) -> Result<()> {\n\
                   if self.deadline_armed.get() {\n\
                       timeout(h, self.cfg.admin_timeout, admin.abort(cid)).await?;\n\
                   } else {\n\
                       // lint:allow(D25) — seeded hang for the watchdog test\n\
                       admin.abort(cid).await?;\n\
                   }\n\
                   Ok(())\n\
               }\n";
    assert_retired("D25", &[(5, src)]);
}

#[test]
fn d18_suppression() {
    let src = "impl W {\n\
                   fn window_base(&self) -> u64 {\n\
                       self.base.as_u64()\n\
                   }\n\
                   fn kick(&self, fab: &Fabric) {\n\
                       let a = self.window_base();\n\
                       // lint:allow(D18) — bounce-buffer base is device-relative\n\
                       fab.dma_write(a, 0, 8);\n\
                   }\n\
               }\n";
    assert_retired("D18", &[(7, src)]);
}

/// The three retired rules that became workspace lints are only as good
/// as the manifests: the root tables must carry them at a level no
/// attribute can lower (`forbid`) or that fails the build (`deny`, for
/// clippy under CI's `cargo clippy`), and every member must inherit the
/// tables — a new crate cannot opt out by leaving `[lints]` off. `deny`
/// can be lowered, though, so no member's `src` may name the clippy lint
/// in an attribute: a local allow is how two tasks once held one
/// `RefCell` across awaits unreported.
#[test]
fn workspace_lints_cover_the_retired_rules() {
    let root = analyzer::workspace_root();
    let read = |p: std::path::PathBuf| {
        std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("{}: {e}", p.display()))
    };
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
    ] {
        let lints = table(&manifest, header);
        assert!(
            lints.iter().any(|l| l == want),
            "root manifest lacks `{want}` under {header}: {lints:?}"
        );
    }
    let mut members = 0;
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let dir = entry.expect("dir entry").path();
        // `crates/shims` holds the workspace-excluded dependency shims.
        if !dir.join("Cargo.toml").is_file() {
            continue;
        }
        members += 1;
        let inherits = table(&read(dir.join("Cargo.toml")), "[lints]");
        assert_eq!(inherits, ["workspace = true"], "{}", dir.display());
        let mut sources = vec![dir.join("src")];
        while let Some(path) = sources.pop() {
            if path.is_dir() {
                for entry in std::fs::read_dir(&path).expect("src dir") {
                    sources.push(entry.expect("dir entry").path());
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                for (i, line) in read(path.clone()).lines().enumerate() {
                    assert!(
                        !line.contains("clippy::await_holding_refcell_ref"),
                        "{}:{} lowers the lint",
                        path.display(),
                        i + 1
                    );
                }
            }
        }
    }
    assert!(members >= 14, "walked {members} member manifests");
}

// ------------------------------------------------------------------ D19

#[test]
fn d19_flags_cross_function_lock_order_cycle() {
    let src = "impl M {\n\
                   fn serve_tick(&self) {\n\
                       let a = self.alpha.lock();\n\
                       self.grab_beta();\n\
                   }\n\
                   fn grab_beta(&self) {\n\
                       let b = self.beta.lock();\n\
                       b.touch();\n\
                   }\n\
                   fn reap_tick(&self) {\n\
                       let b = self.beta.lock();\n\
                       let a = self.alpha.lock();\n\
                       a.merge(b);\n\
                   }\n\
               }\n";
    let f = scan(src, &[Rule::D19]);
    assert_eq!(codes(&f), ["D19"]);
    assert_eq!(
        f[0].line, 3,
        "reported at the first acquisition of the cycle"
    );
    // Both acquisition chains render: the forward order and the reverse.
    assert!(
        f[0].related
            .iter()
            .any(|r| r.note.contains("opposite order")),
        "{:?}",
        f[0].related
    );
}

#[test]
fn d19_ignores_consistent_order_and_released_guards() {
    // Same order on both paths: no cycle.
    let src = "impl M {\n\
                   fn serve_tick(&self) {\n\
                       let a = self.alpha.lock();\n\
                       let b = self.beta.lock();\n\
                       b.merge(a);\n\
                   }\n\
                   fn reap_tick(&self) {\n\
                       let a = self.alpha.lock();\n\
                       self.grab_beta();\n\
                   }\n\
                   fn grab_beta(&self) {\n\
                       let b = self.beta.lock();\n\
                       b.touch();\n\
                   }\n\
               }\n";
    assert!(scan(src, &[Rule::D19]).is_empty());
    // The reverse path releases beta (drop is a use — liveness ends
    // there) before taking alpha: no overlap, no cycle.
    let src = "impl M {\n\
                   fn serve_tick(&self) {\n\
                       let a = self.alpha.lock();\n\
                       self.grab_beta();\n\
                   }\n\
                   fn grab_beta(&self) {\n\
                       let b = self.beta.lock();\n\
                       b.touch();\n\
                   }\n\
                   fn reap_tick(&self) {\n\
                       let b = self.beta.lock();\n\
                       b.touch();\n\
                       drop(b);\n\
                       let a = self.alpha.lock();\n\
                       a.touch();\n\
                   }\n\
               }\n";
    assert!(scan(src, &[Rule::D19]).is_empty());
}

#[test]
fn d19_suppression() {
    let src = "impl M {\n\
                   fn serve_tick(&self) {\n\
                       // lint:allow(D19) — tick never runs concurrently with reap\n\
                       let a = self.alpha.lock();\n\
                       self.grab_beta();\n\
                   }\n\
                   fn grab_beta(&self) {\n\
                       let b = self.beta.lock();\n\
                       b.touch();\n\
                   }\n\
                   fn reap_tick(&self) {\n\
                       let b = self.beta.lock();\n\
                       let a = self.alpha.lock();\n\
                       a.merge(b);\n\
                   }\n\
               }\n";
    assert!(scan(src, &[Rule::D19]).is_empty());
}

// ------------------------------------------------------------------ D21

#[test]
fn d21_flags_teardown_reachable_outside_the_ladder() {
    let src = "impl C {\n\
                   fn submit_io(&self, e: &Engine) {\n\
                       self.fast_reset(e);\n\
                   }\n\
                   fn fast_reset(&self, e: &Engine) {\n\
                       e.reset_qpair(qid);\n\
                   }\n\
               }\n";
    let f = scan(src, &[Rule::D21]);
    assert_eq!(codes(&f), ["D21"]);
    assert_eq!(f[0].line, 6, "reported at the reset_qpair call");
    assert!(
        f[0].related.iter().any(|r| r.note.contains("submit_io")),
        "chain reaches back to the datapath root: {:?}",
        f[0].related
    );
}

#[test]
fn d21_ignores_teardown_behind_the_recovery_ladder() {
    let src = "impl C {\n\
                   fn submit_io(&self, e: &Engine) {\n\
                       self.recover_qpair(e);\n\
                   }\n\
                   fn recover_qpair(&self, e: &Engine) {\n\
                       self.recreate_qpair(e);\n\
                   }\n\
                   fn recreate_qpair(&self, e: &Engine) {\n\
                       e.reset_qpair(qid);\n\
                   }\n\
               }\n";
    assert!(scan(src, &[Rule::D21]).is_empty());
}

#[test]
fn d21_suppression() {
    let src = "impl C {\n\
                   fn submit_io(&self, e: &Engine) {\n\
                       self.fast_reset(e);\n\
                   }\n\
                   fn fast_reset(&self, e: &Engine) {\n\
                       // lint:allow(D21) — test-only teardown shim\n\
                       e.reset_qpair(qid);\n\
                   }\n\
               }\n";
    assert!(scan(src, &[Rule::D21]).is_empty());
}

// --------------------------------------------- dyn dispatch across files

#[test]
fn d07_follows_dyn_dispatch_across_files() {
    // The raw read is reachable only through the trait object: the root
    // file holds the `dyn Backend` call, the impl lives elsewhere.
    let trait_file = "pub trait Backend {\n\
                          fn enqueue_one(&self, sqe: SqEntry);\n\
                      }\n\
                      pub fn submit(b: &dyn Backend, sqe: SqEntry) {\n\
                          b.enqueue_one(sqe);\n\
                      }\n";
    let impl_file = "impl Backend for MmioBackend {\n\
                         fn enqueue_one(&self, sqe: SqEntry) {\n\
                             let head = self.window.cpu_read(HEAD_OFF);\n\
                             self.ring.store(sqe, head);\n\
                         }\n\
                     }\n";
    let f = analyzer::scan_sources(&[
        ("crates/core/src/root.rs", trait_file, vec![Rule::D07]),
        ("crates/core/src/mmio.rs", impl_file, vec![Rule::D07]),
    ]);
    assert_eq!(codes(&f), ["D07"]);
    assert_eq!(f[0].path, "crates/core/src/mmio.rs");
    assert_eq!(f[0].line, 3);
    assert!(
        f[0].related.iter().any(|r| r.note.contains("enqueue_one")),
        "{:?}",
        f[0].related
    );
}

#[test]
fn d17_follows_dyn_dispatch_across_files() {
    let trait_file = "pub trait Stager {\n\
                          fn stage(&self, buf: Buf) -> Staged;\n\
                      }\n\
                      pub fn read_block(s: &dyn Stager, buf: Buf) {\n\
                          let staged = s.stage(buf);\n\
                      }\n";
    let impl_file = "impl Stager for BounceStager {\n\
                         fn stage(&self, buf: Buf) -> Staged {\n\
                             let bb = self.fabric.alloc(self.host, buf.len).unwrap();\n\
                             Staged::new(bb)\n\
                         }\n\
                     }\n";
    let f = analyzer::scan_sources(&[
        ("crates/core/src/root.rs", trait_file, vec![Rule::D17]),
        ("crates/core/src/stager.rs", impl_file, vec![Rule::D17]),
    ]);
    assert_eq!(codes(&f), ["D17"]);
    assert_eq!(f[0].path, "crates/core/src/stager.rs");
}

#[test]
fn method_calls_do_not_cross_files_without_a_trait() {
    // Same shape, but no trait declaration anywhere: a plain method
    // call must not resolve across files on a name match alone.
    let root = "pub fn submit(b: &MmioBackend, sqe: SqEntry) {\n\
                    b.enqueue_one(sqe);\n\
                }\n";
    let other = "impl MmioBackend {\n\
                     fn enqueue_one(&self, sqe: SqEntry) {\n\
                         let head = self.window.cpu_read(HEAD_OFF);\n\
                         self.ring.store(sqe, head);\n\
                     }\n\
                 }\n";
    let f = analyzer::scan_sources(&[
        ("crates/core/src/root.rs", root, vec![Rule::D07]),
        ("crates/core/src/mmio.rs", other, vec![Rule::D07]),
    ]);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn chained_method_calls_do_not_resolve_as_unique_free_helpers() {
    // `fn dma_write` has exactly one definition program-wide, which is
    // what lets a *free* call `dma_write(..)` cross files. A method call
    // must not, however its receiver is spelled: `self.fabric().x()`
    // walks no further than `let fabric = self.fabric(); fabric.x()`.
    let other = "impl Fabric {\n\
                     pub async fn dma_write(&self, dev: Dev, addr: PhysAddr, data: &[u8]) {\n\
                         let head = self.window.cpu_read(HEAD_OFF);\n\
                         self.land(dev, addr, data, head);\n\
                     }\n\
                 }\n";
    let scan = |call: &str| {
        let root = format!(
            "impl Ctrl {{\n\
                 async fn submit_io(&self, dev: Dev, addr: PhysAddr, data: &[u8]) -> Result<()> {{\n\
                     let fabric = self.fabric();\n\
                     {call};\n\
                     Ok(())\n\
                 }}\n\
             }}\n"
        );
        analyzer::scan_sources(&[
            ("crates/core/src/ctrl.rs", &root, vec![Rule::D07]),
            ("crates/core/src/fabric.rs", other, vec![Rule::D07]),
        ])
    };
    let bound = scan("fabric.dma_write(dev, addr, data).await");
    assert!(bound.is_empty(), "{bound:?}");
    for chained in [
        "self.fabric().dma_write(dev, addr, data).await",
        "self.fabric()?.dma_write(dev, addr, data).await",
        "(self.fabric()).dma_write(dev, addr, data).await",
        "self.fabrics[0].dma_write(dev, addr, data).await",
    ] {
        let f = scan(chained);
        assert!(f.is_empty(), "`{chained}` resolved across files: {f:?}");
    }
    // The free-helper arm itself still stands.
    let free = scan("dma_write(&fabric, dev, addr, data).await");
    assert_eq!(codes(&free), ["D07"]);
    assert_eq!(free[0].path, "crates/core/src/fabric.rs");
}

// ----------------------------------------------------- chain rendering

#[test]
fn interproc_chains_render_in_github_and_sarif_output() {
    // The interprocedural D13: the address is minted in the peer's
    // domain two helpers down and used against the local host's — no
    // single function sees both the tag and the sink.
    let src = "impl W {\n\
                   fn peer_slot(&self) -> DomainAddr {\n\
                       DomainAddr::new(self.peer, 0x4000)\n\
                   }\n\
                   fn slot(&self) -> DomainAddr {\n\
                       let s = self.peer_slot();\n\
                       s\n\
                   }\n\
                   fn kick(&self, fab: &Fabric) {\n\
                       let a = self.slot();\n\
                       fab.mem_write(self.host, a, &bytes);\n\
                   }\n\
               }\n";
    let f = scan(src, &[Rule::D13]);
    assert_eq!(codes(&f), ["D13"]);
    assert_eq!(f[0].line, 11, "reported at the sink");
    let hops: Vec<usize> = f[0].related.iter().map(|r| r.line).collect();
    assert_eq!(hops, [10, 6], "root first: {:?}", f[0].related);
    let gh = f[0].to_github_annotation();
    assert!(gh.contains("via crates/fixture/src/lib.rs:6"), "{gh}");
    let sarif = analyzer::to_sarif(&f, &[]);
    assert!(sarif.contains("relatedLocations"), "{sarif}");
    assert!(
        sarif.contains("`peer_slot` returns an address in `self.peer`'s domain"),
        "{sarif}"
    );
    // Translated on the way up, the same chain is clean.
    let src = src.replace(
        "let s = self.peer_slot();",
        "let s = self.ntb.translate(self.peer_slot());",
    );
    assert!(scan(&src, &[Rule::D13]).is_empty());
}

// ------------------------------------------------------------------ D23

#[test]
fn d23_flags_acquire_leaked_by_error_exit() {
    // `segment_region`'s `?` fires between the create and the destroy:
    // the segment leaks on that path.
    let src = "fn probe(&self, smartio: &SmartIo, host: HostId) -> Result<MemRegion> {\n\
                   let seg = smartio.create_segment(host, 4096)?;\n\
                   let region = smartio.segment_region(seg)?;\n\
                   smartio.destroy_segment(seg)?;\n\
                   Ok(region)\n\
               }\n";
    let f = scan(src, &[Rule::D23]);
    assert_eq!(codes(&f), ["D23"]);
    assert_eq!(f[0].line, 2);
}

#[test]
fn d23_flags_a_dma_window_leaked_by_an_error_exit() {
    // The DirectMapped submit path: the request buffer's window is
    // mapped for this I/O, and the command's `?` returns before the
    // unmap — one LUT slot lost per failed I/O.
    let src = "async fn submit_with_tag(&self, bio: &Bio, tag: &Tag) -> BioResult {\n\
                   let win = self\n\
                       .smartio\n\
                       .map_region_for_device(self.device, bio.buf)\n\
                       .map_err(|e| BioError::DeviceError(e.to_string()))?;\n\
                   let status = self.issue_recovered(tag, sqe_over(win.bus_base)).await?.status();\n\
                   self.smartio.unmap_device(win);\n\
                   Ok(())\n\
               }\n";
    let f = scan(src, &[Rule::D23]);
    assert_eq!(codes(&f), ["D23"]);
    assert_eq!(f[0].line, 4);
    // Near miss: the command's result is held until the window is given
    // back, and only then propagated.
    let src = "async fn submit_with_tag(&self, bio: &Bio, tag: &Tag) -> BioResult {\n\
                   let win = self\n\
                       .smartio\n\
                       .map_region_for_device(self.device, bio.buf)\n\
                       .map_err(|e| BioError::DeviceError(e.to_string()))?;\n\
                   let issued = self.issue_direct(bio, tag, win.bus_base).await;\n\
                   self.smartio.unmap_device(win);\n\
                   issued?.status();\n\
                   Ok(())\n\
               }\n";
    assert!(scan(src, &[Rule::D23]).is_empty());
}

#[test]
fn d23_ignores_cleanup_on_every_error_path() {
    // The fallible middle is matched, not `?`-propagated, and the error
    // arm destroys before returning: every error exit retires.
    let src = "fn probe(&self, smartio: &SmartIo, host: HostId) -> Result<MemRegion> {\n\
                   let seg = smartio.create_segment(host, 4096)?;\n\
                   let region = match smartio.segment_region(seg) {\n\
                       Ok(r) => r,\n\
                       Err(e) => {\n\
                           let _ = smartio.destroy_segment(seg);\n\
                           return Err(e);\n\
                       }\n\
                   };\n\
                   smartio.destroy_segment(seg)?;\n\
                   Ok(region)\n\
               }\n";
    assert!(scan(src, &[Rule::D23]).is_empty());
}

#[test]
fn d23_ignores_ownership_transfer() {
    // No retire of `seg` anywhere in the function: the segment is the
    // return value and the caller owns its teardown. The `?` between
    // is not a leak this function can be blamed for… it is, but the
    // rule stays within its precision budget and leaves no-retire
    // functions to the reviewer.
    let src = "fn open(&self, smartio: &SmartIo, host: HostId) -> Result<SegmentId> {\n\
                   let seg = smartio.create_segment(host, 4096)?;\n\
                   self.register(seg)?;\n\
                   Ok(seg)\n\
               }\n";
    assert!(scan(src, &[Rule::D23]).is_empty());
}

#[test]
fn d23_suppression() {
    let src = "fn probe(&self, smartio: &SmartIo, host: HostId) -> Result<MemRegion> {\n\
                   // lint:allow(D23) — seeded leak for the reclaim test\n\
                   let seg = smartio.create_segment(host, 4096)?;\n\
                   let region = smartio.segment_region(seg)?;\n\
                   smartio.destroy_segment(seg)?;\n\
                   Ok(region)\n\
               }\n";
    assert!(scan(src, &[Rule::D23]).is_empty());
}

// ------------------------------------------------------------------ D24

#[test]
fn d24_flags_repeated_ring_and_double_retire() {
    // Two bare rings of the same queue with nothing new stored between.
    let src = "async fn kick(&self, qp: &Qp) -> Result<()> {\n\
                   qp.sq.ring().await?;\n\
                   qp.sq.ring().await?;\n\
                   Ok(())\n\
               }\n";
    let f = scan(src, &[Rule::D24]);
    assert_eq!(codes(&f), ["D24"]);
    assert_eq!(f[0].line, 3);
    // Textually identical retire repeated: the classic double-free.
    let src = "fn put(&self, pool: &Pool, tag: Tag) {\n\
                   pool.release(tag);\n\
                   pool.release(tag);\n\
               }\n";
    let f = scan(src, &[Rule::D24]);
    assert_eq!(codes(&f), ["D24"]);
    assert_eq!(f[0].line, 3);
}

#[test]
fn d24_ignores_justified_repeats() {
    // A store between the rings justifies the second ring.
    let src = "async fn pump(&self, qp: &Qp, sqe: SqEntry) -> Result<()> {\n\
                   qp.sq.ring().await?;\n\
                   qp.sq.push(&sqe).await?;\n\
                   qp.sq.ring().await?;\n\
                   Ok(())\n\
               }\n";
    assert!(scan(src, &[Rule::D24]).is_empty());
    // Re-ring in a sweep loop that pops CQEs in between: the head
    // moved, so each ring is new information.
    let src = "async fn sweep(&self, cq: &Cq) -> Result<()> {\n\
                   loop {\n\
                       while let Some(cqe) = cq.try_pop() {\n\
                           self.deliver(cqe);\n\
                       }\n\
                       cq.ring_doorbell().await?;\n\
                   }\n\
               }\n";
    assert!(scan(src, &[Rule::D24]).is_empty());
    // A consumed second ring is observing the defensive return, and an
    // acquire between retires makes the second retire a new tag.
    let src = "async fn retry(&self, qp: &Qp) -> Result<()> {\n\
                   qp.sq.ring().await?;\n\
                   if qp.sq.ring().await.is_err() {\n\
                       self.note_retry();\n\
                   }\n\
                   Ok(())\n\
               }\n";
    assert!(scan(src, &[Rule::D24]).is_empty());
    let src = "fn cycle(&self, pool: &Pool, tag: Tag) {\n\
                   pool.release(tag);\n\
                   let tag = pool.acquire_tag();\n\
                   pool.release(tag);\n\
               }\n";
    assert!(scan(src, &[Rule::D24]).is_empty());
}

#[test]
fn d24_suppression() {
    let src = "async fn seeded(&self, qp: &Qp) -> Result<()> {\n\
                   qp.sq.ring().await?;\n\
                   // lint:allow(D24) — seeded double ring for the oracle test\n\
                   qp.sq.ring().await?;\n\
                   Ok(())\n\
               }\n";
    assert!(scan(src, &[Rule::D24]).is_empty());
}

// ------------------------------------ D15 clamp-then-slice regression

#[test]
fn d15_clamp_then_slice_folds_through_min_and_len() {
    // An insufficient clamp still overruns: off ≤ 4094 but 4094 + 8 >
    // 4096. The interval lattice must fold `.min()` rather than drop
    // the clamped value to Top (which would silently pass this).
    let src = "fn f(&self) {\n\
                   let region = MemRegion::new(self.host, PhysAddr(0), 4096);\n\
                   let want = 8192;\n\
                   let off = want.min(4094);\n\
                   let e = region.slice(off, 8);\n\
               }\n";
    let f = scan(src, &[Rule::D15]);
    assert_eq!(codes(&f), ["D15"]);
    assert_eq!(f[0].line, 5);
    // The correct clamp — `min(region.len().saturating_sub(64))` —
    // provably keeps off + 64 ≤ 4096 and must scan clean.
    let src = "fn f(&self) {\n\
                   let region = MemRegion::new(self.host, PhysAddr(0), 4096);\n\
                   let want = 8192;\n\
                   let off = want.min(region.len().saturating_sub(64));\n\
                   let e = region.slice(off, 64);\n\
               }\n";
    assert!(scan(src, &[Rule::D15]).is_empty());
    // `.max()` folds too: a floor above the region end is caught.
    let src = "fn f(&self) {\n\
                   let region = MemRegion::new(self.host, PhysAddr(0), 4096);\n\
                   let want = 16;\n\
                   let off = want.min(8).max(4095);\n\
                   let e = region.slice(off, 8);\n\
               }\n";
    assert_eq!(codes(&scan(src, &[Rule::D15])), ["D15"]);
}
