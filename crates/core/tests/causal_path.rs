//! Acceptance: causal critical-path attribution must *tile* the
//! transport's own virtual clock — the assembled `CriticalPathReport`
//! total equals the fabric's measured `Transport::now_us`, and the
//! per-phase / per-hop / per-link shares sum back to that total
//! exactly. Checked on a full PEM window over a uniform LAN and over a
//! mesh of mixed LAN/WAN links.

use std::sync::Mutex;

use pem_core::{Pem, PemConfig};
use pem_market::AgentWindow;
use pem_net::{LatencyModel, PartyId, SimNetwork, Transport};
use pem_telemetry::CriticalPathReport;

/// The telemetry collector is process-global; serialize the tests that
/// install/uninstall it.
static COLLECTOR: Mutex<()> = Mutex::new(());

fn window_data() -> Vec<AgentWindow> {
    vec![
        AgentWindow::new(0, 3.0, 0.5, 0.0, 0.9, 25.0),
        AgentWindow::new(1, 2.0, 0.5, 0.0, 0.9, 30.0),
        AgentWindow::new(2, 0.0, 4.0, 0.0, 0.9, 22.0),
        AgentWindow::new(3, 0.0, 5.0, 0.0, 0.9, 28.0),
    ]
}

fn assert_tiles(report: &CriticalPathReport, measured_us: u64) {
    assert_eq!(
        report.total_us, measured_us,
        "attribution must equal the transport's measured critical path"
    );
    assert!(!report.hops.is_empty(), "a LAN window crosses the wire");
    let hop_sum: u64 = report.hops.iter().map(|h| h.contrib_us).sum();
    assert_eq!(
        hop_sum + report.local_us,
        report.total_us,
        "hop contributions + local compute must tile the total"
    );
    let phase_sum: u64 = report.phase_us.iter().map(|(_, us)| us).sum();
    assert_eq!(
        phase_sum, report.total_us,
        "phase shares must sum to the total"
    );
    let link_sum: u64 = report.link_us.iter().map(|(_, _, us)| us).sum();
    assert_eq!(
        link_sum,
        report.total_us - report.local_us,
        "link shares must sum to the wire time"
    );
}

#[test]
fn attribution_matches_sim_critical_path() {
    let _guard = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
    pem_telemetry::install();
    let mark = pem_telemetry::msg_count();

    let data = window_data();
    let mut pem = Pem::new(PemConfig::fast_test(), data.len()).expect("setup");
    let mut net = SimNetwork::with_latency(data.len(), LatencyModel::lan());
    pem.run_window_on(&mut net, &data).expect("window");

    let msgs = pem_telemetry::msgs_since(mark);
    let report = CriticalPathReport::for_fabric(&msgs, net.fabric_id());
    assert_tiles(&report, net.now_us());
    assert!(report.total_us > 0, "LAN latency accrues virtual time");
    // Every hop on the path belongs to this window's protocol phases.
    for hop in &report.hops {
        assert!(
            hop.label.contains('/'),
            "labels are phase-scoped: {:?}",
            hop.label
        );
    }
    pem_telemetry::uninstall();
}

#[test]
fn attribution_matches_mesh_critical_path() {
    // Every link out of party 0 is a WAN link: the critical path runs
    // through whichever hops they carry, and attribution must still tile
    // it exactly, per link.
    let _guard = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
    pem_telemetry::install();
    let mark = pem_telemetry::msg_count();

    let data = window_data();
    let mut pem = Pem::new(PemConfig::fast_test(), data.len()).expect("setup");
    let mut mesh = SimNetwork::with_latency(data.len(), LatencyModel::lan());
    for to in 1..data.len() {
        mesh.set_link_latency(PartyId(0), PartyId(to), LatencyModel::wan());
    }
    pem.run_window_on(&mut mesh, &data).expect("window");

    let msgs = pem_telemetry::msgs_since(mark);
    let report = CriticalPathReport::for_fabric(&msgs, mesh.fabric_id());
    assert_tiles(&report, mesh.now_us());
    assert!(
        report.total_us >= LatencyModel::wan().base_us,
        "a WAN hop lies on the path"
    );
    pem_telemetry::uninstall();
}
