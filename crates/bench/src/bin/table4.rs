//! Table 4 — disk-related and overall MTTDL per workload and policy.
//!
//! The paper's claims: "even the baseline AFRAID design is uniformly
//! better than an unprotected disk array. It delivers a geometric mean
//! MTTDL 4.3 times better than RAID 0, and is only a factor of 1.8
//! worse than pure RAID 5"; "the disk-related MTTDL was never more
//! than 5% below its target [for MTTDL_x], and usually far exceeded
//! it"; "the dominant factor in overall MTTDL comes from the support
//! components, which limit overall MTTDL to 2 million hours for all
//! but the baseline AFRAID with the busiest workloads".

use afraid::policy::ParityPolicy;
use afraid_avail::mttdl::{mttdl_raid0, mttdl_raid5_catastrophic};
use afraid_avail::params::ModelParams;
use afraid_bench::harness::{self, hours, rule};
use afraid_sim::stats::geometric_mean;
use afraid_trace::workloads::WorkloadKind;

fn main() {
    let args = harness::bench_args(harness::DEFAULT_DURATION_SECS);
    println!(
        "Table 4: mean time to data loss; {}s traces, seed {}",
        args.duration.as_secs_f64(),
        harness::seed()
    );
    println!();
    let p = ModelParams::default();
    println!(
        "references: RAID 5 disk-related {} h, RAID 0 {} h, support {} h",
        hours(mttdl_raid5_catastrophic(&p, 4)),
        hours(mttdl_raid0(&p, 5)),
        hours(p.mttdl_support)
    );
    println!();
    let header = format!(
        "{:<11} {:<12} {:>9} {:>14} {:>14} {:>10}",
        "workload", "policy", "unprot%", "MTTDL disk h", "MTTDL overall h", "vs target"
    );
    println!("{header}");
    rule(header.len());

    let policies = [
        ("afraid".to_string(), ParityPolicy::IdleOnly, None),
        (
            "mttdl_1e9".to_string(),
            ParityPolicy::MttdlTarget {
                target_hours: 1.0e9,
            },
            Some(1.0e9),
        ),
        (
            "mttdl_1e8".to_string(),
            ParityPolicy::MttdlTarget {
                target_hours: 1.0e8,
            },
            Some(1.0e8),
        ),
        (
            "mttdl_1e7".to_string(),
            ParityPolicy::MttdlTarget {
                target_hours: 1.0e7,
            },
            Some(1.0e7),
        ),
    ];

    let run_policies: Vec<(String, ParityPolicy)> = policies
        .iter()
        .map(|(name, policy, _)| (name.clone(), *policy))
        .collect();
    let kinds = WorkloadKind::all();
    let traces = harness::traces_for(&kinds, args.duration, args.jobs);
    let rows = harness::run_cells(args.jobs, &traces, &run_policies);

    let mut afraid_mttdl = Vec::new();
    let mut afraid_overall = Vec::new();
    for (kind, row) in kinds.iter().zip(&rows) {
        for ((name, _, target), cell) in policies.iter().zip(row) {
            let m = &cell.result.metrics;
            let a = &cell.avail;
            if name == "afraid" {
                afraid_mttdl.push(a.mttdl_disk);
                afraid_overall.push(a.mttdl_overall);
            }
            let vs_target = match target {
                Some(t) => format!("{:>9.2}x", a.mttdl_disk / t),
                None => "-".to_string(),
            };
            println!(
                "{:<11} {:<12} {:>8.1}% {:>14} {:>14} {:>10}",
                kind.name(),
                name,
                m.frac_unprotected * 100.0,
                hours(a.mttdl_disk),
                hours(a.mttdl_overall),
                vs_target,
            );
        }
        rule(header.len());
    }

    let geo_disk = geometric_mean(&afraid_mttdl);
    let geo_overall = geometric_mean(&afraid_overall);
    let raid5_overall =
        afraid_avail::mttdl::combine(&[mttdl_raid5_catastrophic(&p, 4), p.mttdl_support]);
    println!();
    println!(
        "baseline AFRAID geometric means: disk MTTDL {} h = {:.1}x RAID 0 (disk); \
         overall MTTDL {} h = {:.1}x below RAID 5 (overall)",
        hours(geo_disk),
        geo_disk / mttdl_raid0(&p, 5),
        hours(geo_overall),
        raid5_overall / geo_overall,
    );
    println!("Paper: 4.3x better than RAID 0; a factor of 1.8 worse than pure RAID 5.");
}
