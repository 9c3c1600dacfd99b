//! The one baseline gate behind `bench regress`, `bench critpath` and
//! `bench perf`: one entry type, one baseline writer and reader, and one
//! comparator. A gate module declares only its [`Gate`] schema — which
//! fields its entries carry and how each is checked — and measures the
//! pinned matrix into [`Entry`]s.
//!
//! Baseline documents have one shape for every gate:
//!
//! ```text
//! {
//!   "version": 1,
//!   ("<header>": <value>,)*
//!   "entries": [
//!     {"app": "fft", "problem": "2^10 points", "nprocs": 4, "<field>": n, "<array>": [n, n]},
//!     ...
//!   ]
//! }
//! ```

use ccnuma_sim::json;

/// How the comparator judges one field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// A deterministic count: any change fails.
    Exact,
    /// A deterministic quantity: a relative change beyond the tolerance
    /// in either direction fails.
    Drift,
    /// A host-timed quantity, judged relative to the matrix: the
    /// geometric-mean current/baseline ratio over all cells (the
    /// machine-speed factor) is divided out first, so a uniformly slower
    /// host passes, and then only a *slowdown* beyond the tolerance
    /// fails — a cell running faster is never a regression.
    Slower,
}

/// One measured field of a gate's entries.
#[derive(Debug)]
pub struct Field {
    /// JSON key.
    pub name: &'static str,
    /// Name in violation messages.
    pub label: &'static str,
    /// Element names of an array field; empty for a scalar.
    pub elems: &'static [&'static str],
    /// How the field is compared.
    pub check: Check,
}

impl Field {
    /// A scalar field, labelled by its key.
    pub const fn scalar(name: &'static str, check: Check) -> Field {
        Field {
            name,
            label: name,
            elems: &[],
            check,
        }
    }

    /// An array field with one named element per slot.
    pub const fn array(name: &'static str, elems: &'static [&'static str], check: Check) -> Field {
        Field {
            name,
            label: name,
            elems,
            check,
        }
    }

    /// The same field under another name in violation messages.
    pub const fn labelled(self, label: &'static str) -> Field {
        Field { label, ..self }
    }
}

/// A gate's schema: its `bench` verb, baseline defaults, and fields.
#[derive(Debug)]
pub struct Gate {
    /// The `bench` subcommand (also named in "regenerate with" hints).
    pub verb: &'static str,
    /// Default baseline path.
    pub baseline: &'static str,
    /// Default relative tolerance.
    pub tolerance: f64,
    /// Entry fields, in document order.
    pub fields: &'static [Field],
}

/// One measured matrix point of any gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Workload name (e.g. `"ocean"`).
    pub app: String,
    /// Problem description (e.g. `"34x34 grid"`).
    pub problem: String,
    /// Processors used.
    pub nprocs: usize,
    /// One value list per [`Gate::fields`] entry, in order: one value
    /// for a scalar, one per element for an array.
    pub values: Vec<Vec<u64>>,
}

impl Entry {
    /// The `"app/problem/NNp"` key identifying this point.
    pub fn key(&self) -> String {
        format!("{}/{}/{}p", self.app, self.problem, self.nprocs)
    }
}

impl Gate {
    /// The values of field `name` in `e`.
    ///
    /// # Panics
    ///
    /// If `name` is not one of this gate's fields.
    pub fn get<'a>(&self, e: &'a Entry, name: &str) -> &'a [u64] {
        let i = self
            .fields
            .iter()
            .position(|f| f.name == name)
            .expect("field belongs to the gate's schema");
        &e.values[i]
    }

    /// Serializes `entries` as the gate's baseline document; `header`
    /// holds extra top-level `(key, JSON value)` pairs written before the
    /// entries.
    pub fn to_json(&self, header: &[(&str, String)], entries: &[Entry]) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n");
        for (k, v) in header {
            out.push_str(&format!("  \"{k}\": {v},\n"));
        }
        out.push_str("  \"entries\": [");
        for (i, e) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"app\": {}, \"problem\": {}, \"nprocs\": {}",
                json::quote(&e.app),
                json::quote(&e.problem),
                e.nprocs
            ));
            for (f, v) in self.fields.iter().zip(&e.values) {
                let nums: Vec<String> = v.iter().map(u64::to_string).collect();
                if f.elems.is_empty() {
                    out.push_str(&format!(", \"{}\": {}", f.name, nums.join(", ")));
                } else {
                    out.push_str(&format!(", \"{}\": [{}]", f.name, nums.join(", ")));
                }
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses the entries of a document written by [`Gate::to_json`].
    ///
    /// # Errors
    ///
    /// Describes the first malformed, missing, or mis-sized field, or a
    /// truncated document.
    pub fn parse(&self, doc: &str) -> Result<Vec<Entry>, String> {
        let (_, rest) = doc
            .split_once("\"entries\":")
            .ok_or("missing entries array")?;
        let rest = rest
            .trim_start()
            .strip_prefix('[')
            .ok_or("entries is not an array")?;
        json::objects(rest)?
            .into_iter()
            .map(|obj| self.entry(obj.ok_or("null entry")?))
            .collect()
    }

    fn entry(&self, obj: &str) -> Result<Entry, String> {
        let values = self
            .fields
            .iter()
            .map(|f| {
                if f.elems.is_empty() {
                    return Ok(vec![json::num_field(obj, f.name)?]);
                }
                let v = json::u64_array(obj, f.name)?;
                if v.len() != f.elems.len() {
                    return Err(format!(
                        "expected {} {} values, got {}",
                        f.elems.len(),
                        f.name,
                        v.len()
                    ));
                }
                Ok(v)
            })
            .collect::<Result<_, String>>()?;
        Ok(Entry {
            app: json::str_field(obj, "app")?,
            problem: json::str_field(obj, "problem")?,
            nprocs: json::num_field(obj, "nprocs")? as usize,
            values,
        })
    }

    /// Compares `current` against `baseline` with relative `tolerance`,
    /// each field by its [`Check`]. Returns one message per violation,
    /// missing point, or new point; empty means the gate passes.
    pub fn compare(&self, baseline: &[Entry], current: &[Entry], tolerance: f64) -> Vec<String> {
        let mut out = Vec::new();
        let mut pairs: Vec<(&Entry, &Entry)> = Vec::new();
        for b in baseline {
            match current.iter().find(|c| c.key() == b.key()) {
                Some(c) => pairs.push((b, c)),
                None => out.push(format!("{}: missing from current run", b.key())),
            }
        }
        for c in current {
            if !baseline.iter().any(|b| b.key() == c.key()) {
                out.push(format!(
                    "{}: not in baseline (regenerate with `bench {}`)",
                    c.key(),
                    self.verb
                ));
            }
        }
        // The machine-speed factor of a `Slower` slot.
        let speed = |fi: usize, i: usize| {
            speed_factor(
                pairs
                    .iter()
                    .map(|(b, c)| (b.values[fi][i], c.values[fi][i])),
            )
        };
        for (b, c) in &pairs {
            let key = b.key();
            for (fi, f) in self.fields.iter().enumerate() {
                for (i, (&base, &cur)) in b.values[fi].iter().zip(&c.values[fi]).enumerate() {
                    let name = match f.elems.get(i) {
                        Some(elem) => format!("{}[{elem}]", f.label),
                        None => f.label.to_string(),
                    };
                    let rel = |speed: f64| (cur as f64 / speed - base as f64) / base.max(1) as f64;
                    match f.check {
                        Check::Exact if cur != base => out.push(format!(
                            "{key}: {name} changed (baseline {base}, current {cur}) — \
                             regenerate with `bench {}`",
                            self.verb
                        )),
                        Check::Drift if rel(1.0).abs() > tolerance => out.push(format!(
                            "{key}: {name} drifted {:+.2}% (baseline {base}, current {cur})",
                            100.0 * rel(1.0)
                        )),
                        Check::Slower => {
                            let speed = speed(fi, i);
                            if rel(speed) > tolerance {
                                out.push(format!(
                                    "{key}: {name} drifted {:+.1}% relative to the matrix \
                                     (baseline {base}, current {cur}, machine-speed factor \
                                     {speed:.2}x)",
                                    100.0 * rel(speed)
                                ));
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        out
    }
}

/// Geometric mean of the current/baseline ratios over `(baseline,
/// current)` pairs with both sides nonzero — the matrix-wide machine-speed
/// factor between two runs (1.0 when no pair qualifies).
fn speed_factor(pairs: impl Iterator<Item = (u64, u64)>) -> f64 {
    let (mut sum_ln, mut n) = (0.0, 0usize);
    for (b, c) in pairs.filter(|&(b, c)| b > 0 && c > 0) {
        sum_ln += (c as f64 / b as f64).ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (sum_ln / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{critpath, perf, regress};

    /// An entry of `gate` with distinct values in every slot.
    fn sample(gate: &Gate, problem: &str, n: u64) -> Entry {
        Entry {
            app: "fft".into(),
            problem: problem.into(),
            nprocs: 4,
            values: gate
                .fields
                .iter()
                .enumerate()
                .map(|(fi, f)| {
                    let base = 1_000 * n + 10 * fi as u64;
                    (0..f.elems.len().max(1) as u64).map(|i| base + i).collect()
                })
                .collect(),
        }
    }

    #[test]
    fn baselines_round_trip_for_every_gate() {
        // Escaped quotes, braces (which a first-`}` splitter would cut
        // the entry at) and control characters in the free-text field.
        let problems = [
            "2^10 points",
            "a \"quoted\" case",
            "brace } and {",
            "tab\tcr\r\u{1}",
        ];
        for gate in [&regress::GATE, &critpath::GATE, &perf::GATE] {
            let entries: Vec<Entry> = (0..)
                .zip(problems)
                .map(|(n, p)| sample(gate, p, n))
                .collect();
            let doc = gate.to_json(&[], &entries);
            assert_eq!(gate.parse(&doc), Ok(entries.clone()), "{}", gate.verb);
            assert!(gate.compare(&entries, &entries, 0.0).is_empty());
            // Every truncation short of the closing `]` is an error, not
            // a silently shorter baseline.
            let close = doc.rfind(']').unwrap();
            for cut in (0..close).filter(|&c| doc.is_char_boundary(c)) {
                assert!(
                    gate.parse(&doc[..cut]).is_err(),
                    "{}: cut at {cut}",
                    gate.verb
                );
            }
        }
        let entries = vec![sample(&perf::GATE, "p", 1)];
        let (model, reps, back) = perf::parse(&perf::to_json(3, &entries)).unwrap();
        assert_eq!(model, ccnuma_sim::MODEL_FINGERPRINT);
        assert_eq!((reps, back), (3, entries));
    }

    #[test]
    fn mis_sized_arrays_are_rejected() {
        let doc = regress::GATE.to_json(&[], &[sample(&regress::GATE, "p", 1)]);
        let short = doc.replace(", 1044]", "]");
        assert_ne!(short, doc);
        let err = regress::GATE.parse(&short).unwrap_err();
        assert!(err.contains("expected 5 causes values, got 4"), "{err}");
    }
}
