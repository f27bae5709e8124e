//! Scenario assembly: builds the paper's Fig. 9 testbeds (and their
//! generalizations) into a ready-to-benchmark state.

use std::rc::Rc;

use blklayer::BlockDevice;
use dnvme::{ClientDriver, Manager};
use fioflex::{run_job, JobReport, JobSpec};
use nvme::driver::{attach_local_driver, LocalNvmeDriver};
use nvme::{BlockStore, NvmeController, QpairStats};
use nvmeof::{NvmfInitiator, NvmfTarget};
use pcie::{Fabric, FaultPlan, HostId, NtbId};
use rdma::IbNet;
use simcore::{ReactorId, SimRuntime};
use smartio::SmartIo;

use crate::calib::Calibration;

/// Which testbed to build.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioKind {
    /// Fig. 9a local: stock Linux driver on the device host.
    LinuxLocal,
    /// Fig. 9a remote: NVMe-oF over RDMA, SPDK target, kernel initiator.
    NvmfRemote,
    /// Fig. 9b local: the distributed driver used on the device host.
    OursLocal,
    /// Fig. 9b remote: client across `switches` cluster switch chips
    /// (adapters add two more; the paper's testbed is `switches: 1`).
    OursRemote { switches: u32 },
    /// The §VI claim: many clients share the controller simultaneously.
    OursMultihost { clients: usize },
}

impl ScenarioKind {
    /// Short label used in reports.
    pub fn label(&self) -> String {
        match self {
            ScenarioKind::LinuxLocal => "linux/local".into(),
            ScenarioKind::NvmfRemote => "nvmeof/remote".into(),
            ScenarioKind::OursLocal => "ours/local".into(),
            ScenarioKind::OursRemote { switches } if *switches == 1 => "ours/remote".into(),
            ScenarioKind::OursRemote { switches } => format!("ours/remote-{}sw", switches),
            ScenarioKind::OursMultihost { clients } => format!("ours/{}hosts", clients),
        }
    }
}

/// A built scenario: the runtime, the fabric, the controller, and one
/// block device per benchmark client.
pub struct Scenario {
    /// The simulation runtime for this scenario.
    pub rt: SimRuntime,
    /// The PCIe fabric.
    pub fabric: Fabric,
    /// The one shared controller.
    pub ctrl: Rc<NvmeController>,
    /// (host, device) per client; index 0 is "the" benchmark host.
    pub clients: Vec<(HostId, Rc<dyn BlockDevice>)>,
    /// NTB adapter per remote client, in `clients` order (empty for the
    /// local and NVMe-oF testbeds) — fault tests sever these.
    pub client_ntbs: Vec<NtbId>,
    /// The scenario's label.
    pub label: String,
    /// Kept alive for the scenario's lifetime.
    _keep: Keep,
}

#[allow(dead_code)] // variants exist to keep their contents alive
enum Keep {
    Linux(Rc<LocalNvmeDriver>),
    Nvmf(Rc<NvmfTarget>, Rc<NvmfInitiator>),
    Ours(Rc<Manager>, Vec<Rc<ClientDriver>>, SmartIo),
}

impl Scenario {
    /// Build a scenario from a calibration.
    pub fn build(kind: ScenarioKind, calib: &Calibration) -> Scenario {
        Self::build_on(kind, calib, SimRuntime::new())
    }

    /// Build a scenario on a multi-reactor runtime. Clients pin
    /// round-robin to reactors (client *i* to reactor `i % reactors`), so
    /// each client driver's internal tasks — submission, completion
    /// service, heartbeats — live on the client's reactor and only
    /// messages cross shards. `reactors: 1` is byte-identical to
    /// [`Scenario::build`].
    pub fn build_sharded(kind: ScenarioKind, calib: &Calibration, reactors: usize) -> Scenario {
        Self::build_on(kind, calib, SimRuntime::with_reactors(reactors.max(1)))
    }

    fn build_on(kind: ScenarioKind, calib: &Calibration, rt: SimRuntime) -> Scenario {
        let fabric = Fabric::new(rt.handle(), calib.fabric.clone());
        let store = Rc::new(BlockStore::new(
            rt.handle(),
            calib.media.clone(),
            calib.block_size,
            calib.capacity_blocks,
            calib.seed,
        ));
        let label = kind.label();
        match kind {
            ScenarioKind::LinuxLocal => {
                let host = fabric.add_host(1 << 30);
                let ctrl = NvmeController::attach(
                    &fabric,
                    host,
                    fabric.rc_node(host),
                    store,
                    calib.nvme.clone(),
                );
                let drv = rt.block_on({
                    let fabric = fabric.clone();
                    let ctrl = ctrl.clone();
                    let cfg = calib.linux_driver.clone();
                    async move {
                        attach_local_driver(&fabric, host, &ctrl, cfg)
                            .await
                            .unwrap()
                    }
                });
                Scenario {
                    rt,
                    fabric,
                    ctrl,
                    clients: vec![(host, drv.clone() as Rc<dyn BlockDevice>)],
                    client_ntbs: Vec::new(),
                    label,
                    _keep: Keep::Linux(drv),
                }
            }
            ScenarioKind::NvmfRemote => {
                let initiator_host = fabric.add_host(1 << 30);
                let target_host = fabric.add_host(1 << 30);
                let net = IbNet::new(&fabric, calib.ib.clone());
                let nic_i = net.add_nic(initiator_host);
                let nic_t = net.add_nic(target_host);
                let ctrl = NvmeController::attach(
                    &fabric,
                    target_host,
                    fabric.rc_node(target_host),
                    store,
                    calib.nvme.clone(),
                );
                let (target, init) = rt.block_on({
                    let fabric = fabric.clone();
                    let ctrl = ctrl.clone();
                    let spdk = calib.spdk_driver.clone();
                    let tcfg = calib.target.clone();
                    let icfg = calib.initiator.clone();
                    let net = net.clone();
                    async move {
                        let drv = attach_local_driver(&fabric, target_host, &ctrl, spdk)
                            .await
                            .unwrap();
                        let target = NvmfTarget::new(&fabric, &net, nic_t, target_host, drv, tcfg);
                        let init = NvmfInitiator::connect(
                            &fabric,
                            &net,
                            nic_i,
                            initiator_host,
                            &target,
                            icfg,
                        );
                        (target, init)
                    }
                });
                Scenario {
                    rt,
                    fabric,
                    ctrl,
                    clients: vec![(initiator_host, init.clone() as Rc<dyn BlockDevice>)],
                    client_ntbs: Vec::new(),
                    label,
                    _keep: Keep::Nvmf(target, init),
                }
            }
            ScenarioKind::OursLocal => {
                Self::build_ours(rt, fabric, store, calib, label, 0, 1, true)
            }
            ScenarioKind::OursRemote { switches } => {
                Self::build_ours(rt, fabric, store, calib, label, switches, 1, false)
            }
            ScenarioKind::OursMultihost { clients } => {
                Self::build_ours(rt, fabric, store, calib, label, 1, clients, false)
            }
        }
    }

    /// Build the distributed-driver scenarios. `switches` is the number of
    /// cluster switch chips between client adapters and the device-host
    /// adapter (0 = switchless back-to-back cabling); `local` puts the
    /// single client on the device host itself.
    #[allow(clippy::too_many_arguments)]
    fn build_ours(
        rt: SimRuntime,
        fabric: Fabric,
        store: Rc<BlockStore>,
        calib: &Calibration,
        label: String,
        switches: u32,
        n_clients: usize,
        local: bool,
    ) -> Scenario {
        // Device host last; clients first (matching mailbox slots by host id).
        let mut client_hosts = Vec::new();
        let mut client_ntbs = Vec::new();
        for _ in 0..n_clients {
            let h = fabric.add_host(1 << 30);
            client_hosts.push(h);
            if !local {
                client_ntbs.push(fabric.add_ntb(h, calib.ntb_slot_size, calib.ntb_slots));
            }
        }
        let dev_host = if local {
            client_hosts[0]
        } else {
            let h = fabric.add_host(1 << 30);
            let dev_ntb = fabric.add_ntb(h, calib.ntb_slot_size, calib.ntb_slots);
            // Topology: chain of `switches` chips; adapters hang off the
            // ends (or both off the single switch for the star topology).
            if switches == 0 {
                // Switchless: client adapters cable straight to the
                // device-host adapter.
                for ntb in &client_ntbs {
                    fabric.link(fabric.ntb_node(*ntb), fabric.ntb_node(dev_ntb));
                }
            } else {
                let mut chain = Vec::new();
                for i in 0..switches {
                    chain.push(fabric.add_switch(&format!("sw{i}")));
                }
                for w in chain.windows(2) {
                    fabric.link(w[0], w[1]);
                }
                for ntb in &client_ntbs {
                    fabric.link(fabric.ntb_node(*ntb), chain[0]);
                }
                fabric.link(fabric.ntb_node(dev_ntb), *chain.last().unwrap());
            }
            h
        };
        let ctrl = NvmeController::attach(
            &fabric,
            dev_host,
            fabric.rc_node(dev_host),
            store,
            calib.nvme.clone(),
        );
        let smartio = SmartIo::new(&fabric);
        let dev = smartio.register_device(ctrl.device_id()).unwrap();
        let (mgr, drivers) = rt.block_on({
            let smartio = smartio.clone();
            let mgr_cfg = calib.manager.clone();
            let client_cfg = calib.client.clone();
            let client_hosts = client_hosts.clone();
            let hd = rt.handle();
            async move {
                // The manager runs on the device host (common deployment;
                // any host works — covered by tests).
                let mgr = Manager::start(&smartio, dev, dev_host, mgr_cfg)
                    .await
                    .unwrap();
                // Connect each client *on its reactor*, so every task the
                // driver spawns during bring-up (completion service,
                // heartbeats) inherits the client's shard.
                let reactors = hd.reactor_count();
                let mut drivers = Vec::new();
                for (i, h) in client_hosts.into_iter().enumerate() {
                    let smartio = smartio.clone();
                    let cfg = client_cfg.clone();
                    let join = hd.spawn_on(ReactorId::new(i % reactors), async move {
                        ClientDriver::connect(&smartio, dev, h, cfg).await.unwrap()
                    });
                    drivers.push(join.await);
                }
                (mgr, drivers)
            }
        });
        let clients: Vec<(HostId, Rc<dyn BlockDevice>)> = client_hosts
            .iter()
            .zip(&drivers)
            .map(|(h, d)| (*h, d.clone() as Rc<dyn BlockDevice>))
            .collect();
        Scenario {
            rt,
            fabric,
            ctrl,
            clients,
            client_ntbs,
            label,
            _keep: Keep::Ours(mgr, drivers, smartio),
        }
    }

    /// Build `kind` fault-free, then install `plan` on the live fabric.
    /// Bring-up never sees injected faults — delivery ordinals count from
    /// installation — so the plan lands squarely on the I/O phase, where
    /// the recovery ladder (not the bring-up path) must absorb it.
    pub fn build_with_faults(kind: ScenarioKind, calib: &Calibration, plan: FaultPlan) -> Scenario {
        let sc = Scenario::build(kind, calib);
        sc.fabric.set_fault_plan(plan);
        sc
    }

    /// The SmartIO service instance, for scenarios built on the
    /// distributed driver (None for the Linux/NVMe-oF baselines).
    pub fn smartio(&self) -> Option<SmartIo> {
        match &self._keep {
            Keep::Ours(_, _, s) => Some(s.clone()),
            _ => None,
        }
    }

    /// The manager, for distributed-driver scenarios.
    pub fn manager(&self) -> Option<Rc<Manager>> {
        match &self._keep {
            Keep::Ours(m, _, _) => Some(m.clone()),
            _ => None,
        }
    }

    /// The client driver handles, for distributed-driver scenarios.
    pub fn client_drivers(&self) -> Vec<Rc<ClientDriver>> {
        match &self._keep {
            Keep::Ours(_, d, _) => d.clone(),
            _ => Vec::new(),
        }
    }

    /// Summed qpair-engine counters across every host-side driver in the
    /// scenario: the Linux driver, the NVMe-oF target's SPDK driver, or
    /// all distributed clients. This is where the benches read doorbell
    /// MMIO counts from.
    pub fn doorbell_totals(&self) -> QpairStats {
        let mut total = QpairStats::default();
        match &self._keep {
            Keep::Linux(drv) => total.absorb(&drv.engine_totals()),
            Keep::Nvmf(target, _) => total.absorb(&target.driver().engine_totals()),
            Keep::Ours(_, drivers, _) => {
                for d in drivers {
                    total.absorb(&d.qpair_stats().totals());
                }
            }
        }
        total
    }

    /// Run a job on client 0.
    pub fn run(&self, spec: &JobSpec) -> JobReport {
        let (host, dev) = self.clients[0].clone();
        let fabric = self.fabric.clone();
        let spec = spec.clone();
        self.rt
            .block_on(async move { run_job(&fabric, host, dev, &spec).await })
    }

    /// Run the same job on every client concurrently (each with a derived
    /// seed); returns one report per client.
    pub fn run_all(&self, spec: &JobSpec) -> Vec<JobReport> {
        let fabric = self.fabric.clone();
        let clients = self.clients.clone();
        let spec = spec.clone();
        self.rt.block_on(async move {
            let h = fabric.handle();
            let reactors = h.reactor_count();
            let mut joins = Vec::new();
            for (i, (host, dev)) in clients.into_iter().enumerate() {
                let fabric = fabric.clone();
                let mut s = spec.clone();
                s.seed = s.seed.wrapping_add(i as u64 * 0x9E37);
                s.name = format!("{}-client{}", s.name, i);
                joins.push(h.spawn_on(ReactorId::new(i % reactors), async move {
                    run_job(&fabric, host, dev, &s).await
                }));
            }
            let mut out = Vec::new();
            for j in joins {
                out.push(j.await);
            }
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fioflex::RwMode;
    use simcore::SimDuration;

    fn quick_job() -> JobSpec {
        JobSpec::fig10(RwMode::RandRead, SimDuration::from_millis(2))
            .ramp(SimDuration::from_micros(50))
    }

    #[test]
    fn all_scenarios_build_and_run() {
        let calib = Calibration::paper();
        for kind in [
            ScenarioKind::LinuxLocal,
            ScenarioKind::NvmfRemote,
            ScenarioKind::OursLocal,
            ScenarioKind::OursRemote { switches: 1 },
        ] {
            let sc = Scenario::build(kind.clone(), &calib);
            let rep = sc.run(&quick_job());
            let r = rep.read.expect("read side");
            assert!(r.ios > 20, "{}: too few IOs ({})", sc.label, r.ios);
            assert_eq!(rep.errors, 0, "{}", sc.label);
            // Every stack submits through a qpair engine, so the doorbell
            // aggregation must see the job's traffic.
            let db = sc.doorbell_totals();
            assert!(
                db.sqes_submitted >= r.ios,
                "{}: engine saw {} SQEs for {} IOs",
                sc.label,
                db.sqes_submitted,
                r.ios
            );
            assert!(db.sq_doorbells > 0 && db.cq_doorbells > 0, "{}", sc.label);
            assert_eq!(db.doorbell_errors, 0, "{}", sc.label);
        }
    }

    #[test]
    fn fig10_ordering_holds() {
        // linux/local < ours/local < ours/remote << nvmeof/remote in
        // median 4 KiB read latency.
        let calib = Calibration::paper();
        let p50 = |kind: ScenarioKind| {
            let sc = Scenario::build(kind, &calib);
            sc.run(&quick_job()).read.unwrap().lat.p50
        };
        let linux = p50(ScenarioKind::LinuxLocal);
        let ours_local = p50(ScenarioKind::OursLocal);
        let ours_remote = p50(ScenarioKind::OursRemote { switches: 1 });
        let nvmf = p50(ScenarioKind::NvmfRemote);
        assert!(
            linux < ours_local,
            "linux {linux} vs ours-local {ours_local}"
        );
        assert!(
            ours_local < ours_remote,
            "ours-local {ours_local} vs ours-remote {ours_remote}"
        );
        assert!(
            ours_remote < nvmf,
            "ours-remote {ours_remote} vs nvmeof {nvmf}"
        );
        // And the headline: NVMe-oF's penalty dwarfs ours.
        let ours_penalty = ours_remote - ours_local;
        let nvmf_penalty = nvmf - linux;
        assert!(
            nvmf_penalty > 3 * ours_penalty,
            "nvmeof penalty {nvmf_penalty} must dwarf ours {ours_penalty}"
        );
    }

    #[test]
    fn sharded_multihost_pins_clients_round_robin() {
        let calib = Calibration::paper();
        let sc = Scenario::build_sharded(ScenarioKind::OursMultihost { clients: 4 }, &calib, 2);
        assert_eq!(sc.rt.reactor_count(), 2);
        let reports = sc.run_all(&quick_job());
        assert_eq!(reports.len(), 4);
        for rep in &reports {
            assert!(rep.read.as_ref().unwrap().ios > 20, "{}", rep.name);
            assert_eq!(rep.errors, 0);
        }
        assert_eq!(sc.ctrl.live_io_queues(), 4);
        // A single-reactor sharded build is the plain build.
        let a = Scenario::build_sharded(ScenarioKind::OursLocal, &calib, 1);
        let b = Scenario::build(ScenarioKind::OursLocal, &calib);
        let pa = a.run(&quick_job()).read.unwrap().lat.p50;
        let pb = b.run(&quick_job()).read.unwrap().lat.p50;
        assert_eq!(pa, pb, "reactors=1 must be byte-identical to build()");
    }

    #[test]
    fn multihost_runs_concurrently() {
        let calib = Calibration::paper();
        let sc = Scenario::build(ScenarioKind::OursMultihost { clients: 4 }, &calib);
        let reports = sc.run_all(&quick_job());
        assert_eq!(reports.len(), 4);
        for rep in &reports {
            assert!(rep.read.as_ref().unwrap().ios > 20, "{}", rep.name);
            assert_eq!(rep.errors, 0);
        }
        assert_eq!(sc.ctrl.live_io_queues(), 4);
    }
}
