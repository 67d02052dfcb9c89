//! What the host is and what the process has used: the fingerprint printed
//! with every result, process CPU time and peak resident memory.

use std::process::Command;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU time of this process, every thread included, in
/// µs. `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)` rather than the
/// `utime + stime` ticks of `/proc/self/stat`: a 10 ms tick quantises a
/// one-second slice of thirty operations to a handful of values, and two
/// runs then read exactly alike.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_us() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call's
    // duration (two 64-bit fields on 64-bit Linux, which the `cfg` above
    // pins), and `clock_gettime` writes nothing else. The clock id is a
    // constant the kernel defines for every process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e6 + ts.tv_nsec as f64 / 1e3
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("a string serializes")
}

/// One-line JSON description of host, toolchain, build and run: git rev
/// and dirty flag (`unknown` outside a git checkout), `nproc`, CPU model,
/// kernel, rustc, features, SIMD tier, seed and the workload's parameters.
pub fn fingerprint(workload: &str, seed: u64, seconds: f64, trace: bool, params: &str) -> String {
    let git = match command_line("git", &["rev-parse", "--short", "HEAD"]) {
        Some(rev) => {
            let dirty =
                command_line("git", &["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
            format!("{rev}{}", if dirty { "+dirty" } else { "" })
        }
        None => "unknown".to_string(),
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |k| k.trim().to_string());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let features = if cgsim_trace::Tracer::enabled().is_enabled() {
        "trace"
    } else {
        ""
    };
    format!(
        "{{\"git\":{},\"nproc\":{nproc},\"cpu\":{},\"kernel\":{},\"rustc\":{},\
         \"features\":{},\"simd_tier\":{},\"workload\":{},\"seed\":{seed},\
         \"seconds\":{seconds},\"trace\":{trace},\"params\":{}}}",
        json_str(&git),
        json_str(&cpu),
        json_str(&kernel),
        json_str(&rustc),
        json_str(features),
        json_str(aie_intrinsics::simd::active_tier().name()),
        json_str(workload),
        json_str(params),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_rss_is_positive() {
        let before = cpu_us();
        let started = std::time::Instant::now();
        let mut x = 0u64;
        while started.elapsed().as_millis() < 20 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let spent = cpu_us() - before;
        assert!(
            (10_000.0..200_000.0).contains(&spent),
            "{spent} us of CPU for a 20 ms spin"
        );
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn fingerprint_is_one_json_object_with_every_field() {
        let line = fingerprint("paper_sim", 7, 1.5, false, "blocks \"512\"/32");
        assert!(!line.contains('\n'));
        let doc = serde_json::parse(&line).expect("fingerprint is JSON");
        for key in [
            "git",
            "nproc",
            "cpu",
            "kernel",
            "rustc",
            "features",
            "simd_tier",
            "workload",
            "seed",
            "seconds",
            "trace",
            "params",
        ] {
            assert!(doc.get(key).is_some(), "missing {key} in {line}");
        }
        assert_eq!(doc.get("seed").and_then(|v| v.as_u64()), Some(7));
        assert_eq!(
            doc.get("params").and_then(|v| v.as_str()),
            Some("blocks \"512\"/32")
        );
    }
}
