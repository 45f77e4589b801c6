//! The `simlint` CLI. See the library docs for the rules.
//!
//! ```text
//! simlint --workspace [--root DIR] [--baseline FILE]
//! simlint --workspace --write-baseline [--baseline FILE]
//! simlint FILE...        # lint specific files (paths relative to the root)
//! ```
//!
//! Exit codes: 0 clean, 1 findings or stale baseline entries, 2 usage
//! or I/O error.

use simlint::{lint_source, lint_workspace, walk, Baseline, Finding};
use std::path::PathBuf;
use std::process::ExitCode;

struct Opts {
    root: Option<PathBuf>,
    baseline: Option<PathBuf>,
    write_baseline: bool,
    files: Vec<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: simlint [--workspace] [--root DIR] [--baseline FILE] \
         [--write-baseline] [FILE...]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        root: None,
        baseline: None,
        write_baseline: false,
        files: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workspace" => {} // the default; kept for explicit invocations
            "--root" => opts.root = Some(args.next().ok_or("--root needs a value")?.into()),
            "--baseline" => {
                opts.baseline = Some(args.next().ok_or("--baseline needs a value")?.into())
            }
            "--write-baseline" => opts.write_baseline = true,
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            file => opts.files.push(file.to_string()),
        }
    }
    Ok(opts)
}

fn render_text(findings: &[Finding], suppressed: usize, stale: &[String]) {
    for f in findings {
        println!(
            "{}:{}:{}: {} `{}` [fingerprint {:016x}]",
            f.path, f.line, f.col, f.rule, f.tokens, f.fingerprint
        );
        println!("    {}", f.snippet);
        println!("    hint: {}", f.hint);
    }
    for s in stale {
        println!("stale baseline entry (site fixed or moved — remove it): {s}");
    }
    println!(
        "simlint: {} finding(s), {} baseline-suppressed, {} stale baseline entr(ies)",
        findings.len(),
        suppressed,
        stale.len()
    );
}

fn run() -> Result<ExitCode, String> {
    let opts = parse_args()?;
    let root = match &opts.root {
        Some(r) => r.clone(),
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            walk::find_root(&cwd).ok_or("no workspace root found; pass --root")?
        }
    };

    let findings = if opts.files.is_empty() {
        lint_workspace(&root).map_err(|e| format!("walking {}: {e}", root.display()))?
    } else {
        let mut all = Vec::new();
        for rel in &opts.files {
            let src = std::fs::read_to_string(root.join(rel))
                .map_err(|e| format!("reading {rel}: {e}"))?;
            all.extend(lint_source(rel, &src));
        }
        all
    };

    if opts.write_baseline {
        let path = opts
            .baseline
            .clone()
            .unwrap_or_else(|| root.join("simlint.allow"));
        std::fs::write(&path, Baseline::render(&findings))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "simlint: wrote {} entr(ies) to {}",
            findings.len(),
            path.display()
        );
        return Ok(ExitCode::SUCCESS);
    }

    let baseline = match &opts.baseline {
        Some(p) => {
            let text = std::fs::read_to_string(p)
                .map_err(|e| format!("reading baseline {}: {e}", p.display()))?;
            Baseline::parse(&text)?
        }
        None => Baseline::default(),
    };
    let (fresh, suppressed, stale) = baseline.apply(findings);

    render_text(&fresh, suppressed.len(), &stale);
    Ok(if fresh.is_empty() && stale.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("simlint: {msg}");
            }
            usage()
        }
    }
}
