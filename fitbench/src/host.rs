//! Host fingerprint and the roofline probe.
//!
//! The probe runs in its own process (`fitbench probe`), never inside the
//! workload process, so its large arrays neither pollute the workload's peak
//! RSS nor share its caches. It measures the single-core FMA peak and the
//! streaming copy bandwidth; the traced run divides kernel throughput by
//! them.

use std::hint::black_box;
use std::time::Instant;

/// What a result must carry to be compared with another.
#[derive(Debug, Clone)]
pub struct Host {
    pub cpu: String,
    pub nproc: usize,
    pub simd_backend: &'static str,
    pub force_scalar: String,
    pub rustc: String,
    pub llc_bytes: Option<u64>,
}

impl Host {
    pub fn fingerprint() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".into());
        Host {
            cpu,
            nproc: nproc(),
            simd_backend: fitact_tensor::simd::backend_name(),
            force_scalar: std::env::var("FITACT_FORCE_SCALAR").unwrap_or_default(),
            rustc,
            llc_bytes: llc_bytes(),
        }
    }

    pub fn to_json(&self, seed: u64, workload: &str, probe: Option<&Probe>) -> String {
        let probe = probe.map_or_else(|| "null".to_owned(), |p| p.to_json());
        format!(
            "{{\"cpu\":{},\"nproc\":{},\"simd_backend\":\"{}\",\"FITACT_FORCE_SCALAR\":{},\"rustc\":{},\"llc_bytes\":{},\"seed\":{seed},\"workload\":\"{workload}\",\"probe\":{probe}}}",
            quote(&self.cpu),
            self.nproc,
            self.simd_backend,
            quote(&self.force_scalar),
            quote(&self.rustc),
            self.llc_bytes.map_or_else(|| "null".to_owned(), |b| b.to_string()),
        )
    }
}

fn quote(s: &str) -> String {
    fitact_io::json::escape_json_string(s)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Size of the last-level cache as the kernel reports it.
fn llc_bytes() -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.filter_map(|entry| {
        let path = entry.ok()?.path();
        let level: u32 = std::fs::read_to_string(path.join("level"))
            .ok()?
            .trim()
            .parse()
            .ok()?;
        let size = std::fs::read_to_string(path.join("size")).ok()?;
        Some((level, parse_size(size.trim())?))
    })
    .max()
    .map(|(_, bytes)| bytes)
}

fn parse_size(text: &str) -> Option<u64> {
    let (digits, scale) = match text.chars().last()? {
        'K' => (&text[..text.len() - 1], 1 << 10),
        'M' => (&text[..text.len() - 1], 1 << 20),
        'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok().map(|d| d * scale)
}

fn mem_available_bytes() -> Option<u64> {
    let info = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("MemAvailable:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// Roofline denominators measured on this host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// Single-core f32 FMA peak, GFLOP/s (one FMA counts two FLOPs).
    pub fma_gflops: f64,
    /// Streaming copy bandwidth, GB/s (bytes read plus bytes written).
    pub copy_gbps: f64,
    /// Size of each copy array.
    pub array_bytes: u64,
    /// Four times the LLC: the array size the probe aims for.
    pub target_bytes: u64,
}

impl Probe {
    /// Runs the probe in this process. Each copy array is four times the LLC
    /// unless that exceeds a sixteenth of the available memory; the output
    /// states both sizes either way.
    pub fn measure() -> Probe {
        let target_bytes = llc_bytes().unwrap_or(32 << 20) * 4;
        let cap = mem_available_bytes().map_or(256 << 20, |m| m / 16);
        let array_bytes = target_bytes.min(cap).max(1 << 20);
        Probe {
            fma_gflops: best_of(5, fma_gflops),
            copy_gbps: copy_gbps(usize::try_from(array_bytes / 4).expect("array fits in memory")),
            array_bytes,
            target_bytes,
        }
    }

    pub fn to_json(self) -> String {
        format!(
            "{{\"fma_gflops\":{},\"copy_gbps\":{},\"array_bytes\":{},\"target_bytes\":{}}}",
            self.fma_gflops, self.copy_gbps, self.array_bytes, self.target_bytes
        )
    }

    pub fn from_json(text: &str) -> Option<Probe> {
        let value = fitact_io::JsonValue::parse(text.trim()).ok()?;
        let num = |k: &str| value.get(k).and_then(|v| v.as_f64());
        Some(Probe {
            fma_gflops: num("fma_gflops")?,
            copy_gbps: num("copy_gbps")?,
            array_bytes: num("array_bytes")? as u64,
            target_bytes: num("target_bytes")? as u64,
        })
    }

    /// Runs `fitbench probe` as a child process and parses its output.
    pub fn in_child() -> Result<Probe, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let output = std::process::Command::new(exe)
            .arg("probe")
            .output()
            .map_err(|e| format!("probe process: {e}"))?;
        if !output.status.success() {
            return Err(format!("probe exited with {}", output.status));
        }
        let text = String::from_utf8_lossy(&output.stdout);
        Probe::from_json(text.lines().last().unwrap_or(""))
            .ok_or_else(|| format!("unparseable probe output {text:?}"))
    }
}

fn best_of(runs: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..runs).map(|_| f()).fold(0.0, f64::max)
}

/// 128 independent FMA chains: enough to cover the FMA latency on every
/// port, so the loop runs at the core's FMA throughput.
fn fma_gflops() -> f64 {
    const LANES: usize = 128;
    const ITERS: usize = 400_000;
    let mut acc = [0.0f32; LANES];
    for (i, a) in acc.iter_mut().enumerate() {
        *a = i as f32 * 1e-3;
    }
    let mul = black_box(0.999_999_9f32);
    let add = black_box(1e-7f32);
    let start = Instant::now();
    for _ in 0..ITERS {
        for a in acc.iter_mut() {
            *a = a.mul_add(mul, add);
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    black_box(&acc);
    (2 * LANES * ITERS) as f64 / seconds / 1e9
}

fn copy_gbps(elements: usize) -> f64 {
    let src: Vec<f32> = (0..elements).map(|i| i as f32).collect();
    let mut dst = vec![0.0f32; elements];
    best_of(3, || {
        let start = Instant::now();
        dst.copy_from_slice(black_box(&src));
        let seconds = start.elapsed().as_secs_f64();
        black_box(&dst);
        (2 * 4 * elements) as f64 / seconds / 1e9
    })
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_size("300M"), Some(300 << 20));
        assert_eq!(parse_size("48K"), Some(48 << 10));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn probe_json_round_trips() {
        let probe = Probe {
            fma_gflops: 123.25,
            copy_gbps: 9.5,
            array_bytes: 1 << 30,
            target_bytes: 1 << 31,
        };
        assert_eq!(Probe::from_json(&probe.to_json()), Some(probe));
    }
}
