//! The job sets each workload draws from. Every identity listed here has an
//! entry in `expected.json`.

use selcache_core::{
    AssistKind, Benchmark, ConfigVariant, ControllerConfig, MachineConfig, Scale, SimJob, SimMode,
    Version,
};

/// `paper-suite`: every benchmark at `Scale::Small` on the base machine, in
/// each simulated version under both the bypass and the victim assist,
/// plus Selective driven by the online controller — `fig4` for both
/// assists and the `adapt` ablation as one job set.
pub fn paper_suite() -> Vec<SimJob> {
    let machine = MachineConfig::base();
    let mut jobs = Vec::new();
    for bm in Benchmark::ALL {
        for assist in [AssistKind::Bypass, AssistKind::Victim] {
            for version in [
                Version::Base,
                Version::PureHardware,
                Version::PureSoftware,
                Version::Combined,
                Version::Selective,
            ] {
                jobs.push(SimJob::new(bm, Scale::Small, machine.clone(), assist, version));
            }
        }
        jobs.push(
            SimJob::new(bm, Scale::Small, machine.clone(), AssistKind::None, Version::Selective)
                .with_controller(ControllerConfig::default()),
        );
    }
    jobs
}

/// `sampled-large`: Base and Selective (bypass) for every benchmark at
/// `Scale::Large` under the default sampled mode.
pub fn sampled_large() -> Vec<SimJob> {
    let machine = MachineConfig::base();
    let mut jobs = Vec::new();
    for bm in Benchmark::ALL {
        for version in [Version::Base, Version::Selective] {
            jobs.push(
                SimJob::new(bm, Scale::Large, machine.clone(), AssistKind::Bypass, version)
                    .with_mode(SimMode::sampled()),
            );
        }
    }
    jobs
}

/// One identity of the `service-mixed` pool: the job and the protocol
/// object that asks `selcached` for it.
#[derive(Clone)]
pub struct PoolEntry {
    pub job: SimJob,
    pub spec: String,
}

/// `service-mixed`: a fixed pool of `Scale::Tiny` identities over all six
/// machines — every version and assist, the controller, and a sampled
/// Base/Selective pair.
pub fn service_pool() -> Vec<PoolEntry> {
    let mut pool = Vec::new();
    for bm in Benchmark::ALL {
        for variant in ConfigVariant::ALL {
            let machine = variant.machine();
            let mut add = |version: Version, assist: AssistKind, extra: &str, job: SimJob| {
                let spec = format!(
                    "{{\"benchmark\":\"{}\",\"scale\":\"tiny\",\"machine\":\"{variant:?}\",\
\"assist\":\"{}\",\"version\":\"{}\"{extra}}}",
                    bm.name(),
                    assist_token(assist),
                    version_token(version)
                );
                pool.push(PoolEntry { job, spec });
            };
            let job =
                |version, assist| SimJob::new(bm, Scale::Tiny, machine.clone(), assist, version);
            add(Version::Base, AssistKind::Bypass, "", job(Version::Base, AssistKind::Bypass));
            add(
                Version::PureSoftware,
                AssistKind::Bypass,
                "",
                job(Version::PureSoftware, AssistKind::Bypass),
            );
            for assist in [AssistKind::Bypass, AssistKind::Victim, AssistKind::Stream] {
                for version in [Version::PureHardware, Version::Combined, Version::Selective] {
                    add(version, assist, "", job(version, assist));
                }
            }
            add(
                Version::Selective,
                AssistKind::None,
                ",\"policy\":\"dynamic\"",
                job(Version::Selective, AssistKind::None)
                    .with_controller(ControllerConfig::default()),
            );
            for version in [Version::Base, Version::Selective] {
                add(
                    version,
                    AssistKind::Bypass,
                    ",\"mode\":\"sampled\"",
                    job(version, AssistKind::Bypass).with_mode(SimMode::sampled()),
                );
            }
        }
    }
    pool
}

fn assist_token(a: AssistKind) -> &'static str {
    match a {
        AssistKind::None => "none",
        AssistKind::Bypass => "bypass",
        AssistKind::Victim => "victim",
        AssistKind::Stream => "stream",
    }
}

fn version_token(v: Version) -> &'static str {
    match v {
        Version::Base => "base",
        Version::PureHardware => "pure-hardware",
        Version::PureSoftware => "pure-software",
        Version::Combined => "combined",
        Version::Selective => "selective",
    }
}

/// Short label for a job in reports and traces.
pub fn label(job: &SimJob) -> String {
    let dynamic = if job.machine.mem.controller.is_some() { "+dynamic" } else { "" };
    format!("{}/{:?}/{:?}{dynamic}", job.benchmark.name(), job.version, job.assist)
}
