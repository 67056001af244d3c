//! The ShakeOut scenario in miniature (paper §VI, Fig. 3 context):
//! a Mw 7.8 kinematic rupture of the southern San Andreas propagating
//! NW from the Salton Sea, through the full end-to-end workflow
//! (CVM2MESH → PetaMeshP → dSrcG/PetaSrcP → AWM → MD5 → archive).
//!
//! ```text
//! cargo run --release --example shakeout_scenario
//! ```

use awp_odc::scenario::Scenario;
use awp_odc::workflow::{scratch_dir, WorkflowSession};

fn main() {
    let scenario = Scenario::shakeout_k(160, 0.3).with_duration(120.0);
    println!("{} — {}", scenario.name, scenario.description);
    let d = scenario.dims();
    println!(
        "box {:.0} × {:.0} × {:.0} km, grid {:?} (h = {:.1} km), fault {:.0} km",
        scenario.length / 1e3,
        scenario.width / 1e3,
        scenario.depth / 1e3,
        d,
        scenario.h() / 1e3,
        scenario.trace().length() / 1e3,
    );

    println!("preparing mesh and source ...");
    let run = scenario.prepare();
    println!(
        "source: Mw {:.2}, {} subfaults, dt = {:.3} s, {} steps",
        run.source.magnitude(),
        run.source.subfaults.len(),
        run.cfg.dt,
        run.cfg.steps
    );

    let dir = scratch_dir("shakeout");
    println!("running the end-to-end workflow on 4 ranks (workdir {dir:?}) ...");
    let wf = WorkflowSession::new([2, 2, 1]);
    let rep = wf.execute(&run, &dir).expect("workflow");

    println!("\nstage            seconds      MB      MB/s");
    for s in &rep.stages {
        println!(
            "{:<16} {:>8.2} {:>8.2} {:>9.1}",
            s.stage,
            s.seconds,
            s.bytes as f64 / 1e6,
            s.mb_per_s()
        );
    }
    println!(
        "\noutput transactions: {}, collection MD5 {}, archive verified: {}",
        rep.output_transactions, rep.collection_checksum, rep.archive_verified
    );

    println!("\ncity PGVs (m/s):");
    for (name, fx, fy) in awp_odc::scenario::CITIES {
        let v = rep.pgv.at_position(fx * 600_000.0, fy * 300_000.0);
        println!("  {name:<18} {v:>7.3}");
    }
    println!("\nsurface PGV map (max {:.2} m/s):", rep.pgv.max());
    println!("{}", rep.pgv.to_ascii(96));
    let _ = std::fs::remove_dir_all(&dir);
}
