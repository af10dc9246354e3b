//! **Ablation** — ring vs. star vs. tree aggregation in Private Pricing.
//!
//! The paper's Protocol 3 threads one ciphertext pair through the seller
//! coalition (a *ring*): `|Φ_s|` messages, but also `|Φ_s|` *sequential*
//! hops — the latency-critical path grows linearly in the coalition. A
//! *star* (every seller straight to `H_b`) moves the same bytes at depth
//! 1, at the cost of `H_b` doing all `|Φ_s|` homomorphic multiplications
//! itself and absorbing an `|Φ_s|`-message fan-in. The *tree* bounds the
//! per-hop fan-in at `f` while keeping the depth `O(log_f |Φ_s|)`.
//!
//! Critical paths are **measured**, not estimated: each run executes on
//! a `SimNetwork` under the LAN latency model and reads the transport's
//! virtual clock (`Transport::now_us`). The clock overlaps propagation
//! across messages but serializes each recipient's ingress bytes, so
//! the star's hub fan-in carries its real bandwidth cost: ring grows as
//! `n·(base+transmit)`, star as `base + n·transmit`, tree as
//! `O(log_f n)` hops of at most `f` transmissions each.
//!
//! Output: a JSON array (one element per seller count). The committed
//! baseline lives in `BENCH_topology.json`, which `grid_doctor
//! --topology` gates.
//!
//! ```text
//! cargo run -p pem-bench --release --bin ablation_topology -- \
//!     [--sellers 4,8,16,32,64] [--key 192] [--fanin 2]
//! ```

use pem_bench::json::Json;
use pem_bench::Args;
use pem_core::block_on;
use pem_core::fold::Topology;
use pem_core::protocol3::price;
use pem_core::{Coalition, Draws, KeyDirectory, PemConfig};
use pem_market::AgentWindow;
use pem_net::{LatencyModel, SimNetwork, Transport};

struct Row {
    sellers: usize,
    bytes: [u64; 3],
    critical_us: [u64; 3],
    cpu_us: [u64; 3],
}

fn main() {
    let args = Args::from_env();
    let seller_counts = args.get_usize_list("sellers", &[4, 8, 16, 32, 64]);
    let key_bits = args.get_usize("key", 192);
    let fanin = args.get_usize("fanin", 2).max(2);
    eprintln!("# ablation_topology: sellers={seller_counts:?} key={key_bits} fanin={fanin}");

    let topologies = [Topology::Ring, Topology::Star, Topology::Tree { fanin }];
    let mut rows = Vec::new();
    for &n_sellers in &seller_counts {
        let n = n_sellers + 2; // plus two buyers
        let mut cfg = PemConfig::fast_test();
        cfg.key_bits = key_bits;
        let keys = KeyDirectory::generate(n, cfg.key_bits, cfg.seed).expect("keys");
        let data: Vec<AgentWindow> = (0..n)
            .map(|i| {
                if i < n_sellers {
                    AgentWindow::new(i, 3.0 + (i % 5) as f64, 0.5, 0.0, 0.9, 20.0 + i as f64)
                } else {
                    AgentWindow::new(i, 0.0, 50.0, 0.0, 0.9, 25.0)
                }
            })
            .collect();

        let measure = |topology: Topology| -> (f64, u64, u64, u64) {
            let cfg = cfg.clone().with_topology(topology);
            let draws = Draws::new(cfg.seed, 0, 0);
            let coalition = Coalition::new(&cfg, &keys, draws, &data).expect("coalition");
            let mut net = SimNetwork::with_latency(n, LatencyModel::lan());
            let start = std::time::Instant::now();
            let out = block_on(price(&mut net, &coalition)).expect("pricing");
            let elapsed_us = start.elapsed().as_micros() as u64;
            let bytes = net.stats().per_label["price/agg"].bytes;
            // Measured critical path of the aggregation + broadcast on
            // the virtual clock (not a depth × per-hop estimate).
            (out.price, bytes, net.now_us(), elapsed_us)
        };

        let mut row = Row {
            sellers: n_sellers,
            bytes: [0; 3],
            critical_us: [0; 3],
            cpu_us: [0; 3],
        };
        let mut prices = [0.0f64; 3];
        for (k, &t) in topologies.iter().enumerate() {
            let (p, b, crit, cpu) = measure(t);
            prices[k] = p;
            row.bytes[k] = b;
            row.critical_us[k] = crit;
            row.cpu_us[k] = cpu;
        }
        assert!(
            (prices[0] - prices[1]).abs() < 1e-9 && (prices[0] - prices[2]).abs() < 1e-9,
            "topologies must agree on the price"
        );
        rows.push(row);
    }

    let rows: Json = rows
        .iter()
        .map(|r| {
            let mut fields = vec![
                ("sellers".to_string(), r.sellers as u64),
                ("fanin".to_string(), fanin as u64),
            ];
            for (k, t) in ["ring", "star", "tree"].into_iter().enumerate() {
                fields.push((format!("{t}_bytes"), r.bytes[k]));
                fields.push((format!("{t}_critical_path_us"), r.critical_us[k]));
                fields.push((format!("{t}_cpu_us"), r.cpu_us[k]));
            }
            Json::obj(fields.into_iter().map(|(key, v)| (key, Json::from(v))))
        })
        .collect();
    println!("{rows}");
    eprintln!(
        "# shape: bytes equal; ring critical path grows linearly in full \
         hops, star linearly in hub ingress transmissions, tree \
         logarithmically with bounded per-hop fan-in"
    );
}
