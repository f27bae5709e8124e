//! The §VI claim as a test: the P4800X-like controller (32 queue pairs,
//! one reserved for admin) is shared by **31 hosts simultaneously**, all
//! doing real I/O, and a 32nd host is cleanly refused.

use blklayer::Bio;
use cluster::{Calibration, Scenario, ScenarioKind};
use dnvme::{ClientConfig, ClientDriver};
use fioflex::stamp;
use simcore::Stage;
use smartio::SmartIo;

#[test]
fn thirty_one_hosts_share_one_controller() {
    let calib = Calibration::paper();
    let _armed = simcore::sanitize::arm();
    let sc = Scenario::build(ScenarioKind::OursMultihost { clients: 31 }, &calib);
    assert_eq!(sc.ctrl.live_io_queues(), 31, "31 I/O queue pairs live");

    let fabric = sc.fabric.clone();
    let clients = sc.clients.clone();
    let handle = sc.rt.handle();
    let total_errors = sc.rt.block_on(async move {
        let mut tasks = Vec::new();
        for (i, (host, dev)) in clients.into_iter().enumerate() {
            let fabric = fabric.clone();
            tasks.push(handle.spawn(async move {
                let base = i as u64 * 4096;
                let buf = fabric.alloc(host, 4096).unwrap();
                let mut errors = 0u64;
                // Each host writes then reads back its own stripe.
                for k in 0..8u64 {
                    let lba = base + k * 8;
                    let data = stamp(lba, i as u64, 4096);
                    fabric.mem_write(host, buf.addr, &data).unwrap();
                    if dev.submit(Bio::write(lba, 8, buf)).await.is_err() {
                        errors += 1;
                    }
                }
                for k in 0..8u64 {
                    let lba = base + k * 8;
                    if dev.submit(Bio::read(lba, 8, buf)).await.is_err() {
                        errors += 1;
                        continue;
                    }
                    let mut got = vec![0u8; 4096];
                    fabric.mem_read(host, buf.addr, &mut got).unwrap();
                    if got != stamp(lba, i as u64, 4096) {
                        errors += 1;
                    }
                }
                errors
            }));
        }
        let mut total = 0;
        for t in tasks {
            total += t.await;
        }
        total
    });
    assert_eq!(total_errors, 0, "31-host sharing with data integrity");
    let records = sc.rt.handle().sanitize_records();
    let count = |stage| records.iter().filter(|r| r.stage == stage).count();
    assert!(count(Stage::MediaWrite) >= 31 * 8);
    assert!(count(Stage::MediaRead) >= 31 * 8);
    assert_eq!(sc.ctrl.stats().errors_returned, 0);
}

#[test]
fn thirty_second_host_is_refused() {
    // Build 31 clients, then try to connect one more from the device host
    // (which has a free mailbox slot but no free queue pair).
    let calib = Calibration::paper();
    let sc = Scenario::build(ScenarioKind::OursMultihost { clients: 31 }, &calib);
    // Use the device host's mailbox slot (unused by the 31 clients).
    let smartio: SmartIo = sc.smartio().expect("distributed scenario has SmartIO");
    let dev = smartio.devices()[0];
    let dev_host = smartio.device_host(dev).unwrap();
    let held = {
        let smartio = smartio.clone();
        move || {
            let fabric = smartio.fabric();
            (
                smartio.borrow_state(dev).unwrap(),
                fabric.free_lut_slots(dev_host),
            )
        }
    };
    let before = held();
    let connect = |cfg: ClientConfig| {
        let smartio = smartio.clone();
        async move { ClientDriver::connect(&smartio, dev, dev_host, cfg).await }
    };
    // Refused on the first CreateQp, and — once one of the 31 has left —
    // on the second of two: either way the refused connect gives back
    // everything it took, the granted first queue pair included.
    let two = ClientConfig {
        num_qpairs: 2,
        ..ClientConfig::default()
    };
    for (leavers, cfg) in [(0, ClientConfig::default()), (1, two)] {
        for departing in sc.client_drivers().into_iter().take(leavers) {
            sc.rt
                .block_on(async move { departing.disconnect().await })
                .unwrap();
        }
        let before = if leavers == 0 { before } else { held() };
        let err = match sc.rt.block_on(connect(cfg)) {
            Err(e) => e,
            Ok(_) => panic!("32nd queue pair must not exist"),
        };
        assert!(
            matches!(err, dnvme::DnvmeError::Mailbox(c) if c == dnvme::proto::status::NO_FREE_QPAIR),
            "{err}"
        );
        assert_eq!(held(), before, "refused connect leaked ({leavers} left)");
    }
    // With a peer gone, a fresh single-qpair connect from the refused host
    // succeeds.
    let drv = sc
        .rt
        .block_on(connect(ClientConfig::default()))
        .expect("one queue pair is free");
    sc.rt
        .block_on(async move { drv.disconnect().await })
        .unwrap();
}
