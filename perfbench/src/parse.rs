//! Readers for what the program reports about itself: the server's
//! `GET /stats` document and the suite scheduler's footer (its
//! per-experiment outcomes and trace-store totals).

use report::Json;

/// The counters of one `/stats` snapshot the benchmark checks and
/// reports; subtract two snapshots for the activity between them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounts {
    pub trace_hits: u64,
    pub trace_misses: u64,
    pub timeline_hits: u64,
    pub timeline_misses: u64,
    pub hist_hits: u64,
    pub hist_misses: u64,
    pub coalesced_waits: u64,
    /// Trace plus histogram evictions.
    pub evictions: u64,
    /// Accept-time plus dispatch-time sheds.
    pub sheds: u64,
    pub deadline_timeouts: u64,
    pub panics_contained: u64,
}

impl ServerCounts {
    /// Counter increments since `earlier`.
    pub fn since(&self, earlier: &ServerCounts) -> ServerCounts {
        ServerCounts {
            trace_hits: self.trace_hits - earlier.trace_hits,
            trace_misses: self.trace_misses - earlier.trace_misses,
            timeline_hits: self.timeline_hits - earlier.timeline_hits,
            timeline_misses: self.timeline_misses - earlier.timeline_misses,
            hist_hits: self.hist_hits - earlier.hist_hits,
            hist_misses: self.hist_misses - earlier.hist_misses,
            coalesced_waits: self.coalesced_waits - earlier.coalesced_waits,
            evictions: self.evictions - earlier.evictions,
            sheds: self.sheds - earlier.sheds,
            deadline_timeouts: self.deadline_timeouts - earlier.deadline_timeouts,
            panics_contained: self.panics_contained - earlier.panics_contained,
        }
    }

    /// Store misses of any tier.
    pub fn misses(&self) -> u64 {
        self.trace_misses + self.timeline_misses + self.hist_misses
    }
}

/// Asks the server on `session` for `GET /stats` and parses it.
pub fn fetch_stats(session: &mut crate::http::Session) -> Result<ServerCounts, String> {
    stats(&session.call("GET", "/stats", "")?.body)
}

/// Parses a `GET /stats` body.
pub fn stats(body: &str) -> Result<ServerCounts, String> {
    let doc = Json::parse(body.trim()).map_err(|e| format!("/stats is not JSON: {e}"))?;
    let at = |path: &[&str]| -> Result<u64, String> {
        let mut v = &doc;
        for key in path {
            v = v
                .get(key)
                .ok_or_else(|| format!("/stats lacks {}", path.join(".")))?;
        }
        v.as_u64()
            .ok_or_else(|| format!("/stats {} is not a count", path.join(".")))
    };
    let store = |key: &str| at(&["store", key]);
    Ok(ServerCounts {
        trace_hits: store("trace_hits")?,
        trace_misses: store("trace_misses")?,
        timeline_hits: store("timeline_hits")?,
        timeline_misses: store("timeline_misses")?,
        hist_hits: store("hist_hits")?,
        hist_misses: store("hist_misses")?,
        coalesced_waits: store("coalesced_waits")?,
        evictions: store("trace_evictions")? + store("hist_evictions")?,
        sheds: at(&["server", "overload", "sheds_accept"])?
            + at(&["server", "overload", "sheds_dispatch"])?,
        deadline_timeouts: at(&["server", "deadline_timeouts"])?,
        panics_contained: at(&["server", "panics_contained"])?,
    })
}

/// One experiment row of the scheduler footer.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpRow {
    pub id: String,
    pub status: String,
    pub wall_s: f64,
}

/// The scheduler footer `run_all` prints on stderr.
#[derive(Debug, Clone, PartialEq)]
pub struct Footer {
    pub experiments: Vec<ExpRow>,
    /// Suite totals: trace, timeline and histogram hits and misses, in
    /// that order (hit, miss, hit, miss, hit, miss).
    pub store: [u64; 6],
    pub coalesced_waits: u64,
    pub evictions: u64,
}

/// Every unsigned integer in `text`, in order.
fn integers(text: &str) -> Vec<u64> {
    text.split(|c: char| !c.is_ascii_digit())
        .filter(|t| !t.is_empty())
        .filter_map(|t| t.parse().ok())
        .collect()
}

/// The integer right after `label` in `line`.
fn count_after(line: &str, label: &str) -> Option<u64> {
    let rest = &line[line.find(label)? + label.len()..];
    integers(rest).first().copied()
}

/// Parses the footer (the whole stderr of a `run_all` run).
pub fn footer(text: &str) -> Result<Footer, String> {
    let totals = text
        .lines()
        .find_map(|l| l.strip_prefix("suite: "))
        .ok_or("footer lacks the suite line")?;
    let store: [u64; 6] = totals
        .split_once("trace store: ")
        .map(|(_, t)| integers(t))
        .and_then(|v| v.try_into().ok())
        .ok_or("footer suite line lacks six store totals")?;
    let stats = text
        .lines()
        .find(|l| l.starts_with("store stats: "))
        .ok_or("footer lacks the store stats line")?;
    let coalesced_waits = count_after(stats, "coalesced waits ").ok_or("no coalesced waits")?;
    let evictions = count_after(stats, "evictions ").ok_or("no evictions")?
        + count_after(stats, "trace / ").ok_or("no hist evictions")?;
    let mut experiments = Vec::new();
    for line in text.lines().filter(|l| l.starts_with('|')) {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        if cells.len() < 4 || cells[1] == "experiment" || cells[1].starts_with('-') {
            continue;
        }
        let wall_s = cells[3]
            .strip_suffix('s')
            .and_then(|w| w.parse().ok())
            .ok_or_else(|| format!("bad wall cell {:?}", cells[3]))?;
        experiments.push(ExpRow {
            id: cells[1].to_string(),
            status: cells[2].to_string(),
            wall_s,
        });
    }
    Ok(Footer {
        experiments,
        store,
        coalesced_waits,
        evictions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_documents_parse_and_subtract() {
        let body = r#"{"ok":true,"server":{"requests":9,"overload":{"sheds_accept":1,"sheds_dispatch":2},"deadline_timeouts":3,"panics_contained":0,"queries":{}},"store":{"trace_hits":1,"trace_misses":2,"timeline_hits":30,"timeline_misses":6,"hist_hits":4,"hist_misses":3,"trace_evictions":1,"hist_evictions":1,"coalesced_waits":0,"trace_bytes":0,"hist_bytes":5,"poison_recoveries":0}}"#;
        let now = stats(body).unwrap();
        assert_eq!(now.timeline_hits, 30);
        assert_eq!(now.evictions, 2);
        assert_eq!(now.sheds, 3);
        assert_eq!(now.misses(), 11);
        let earlier = ServerCounts {
            timeline_hits: 10,
            ..ServerCounts::default()
        };
        assert_eq!(now.since(&earlier).timeline_hits, 20);
        assert!(
            stats("{\"ok\":true}").is_err(),
            "missing sections are errors"
        );
        assert!(stats("not json").is_err());
    }

    #[test]
    fn footers_yield_outcomes_and_totals() {
        let text = "\
suite: 3 experiments in 1.407s; trace store: traces 12 hit / 9 miss, timelines 240 hit / 12 miss, histograms 6 hit / 6 miss
| experiment  | status | wall   | traces h/m | timelines h/m | hists h/m |
|-------------|--------|--------|------------|---------------|-----------|
| table23     | ok     | 0.000s | 0/0        | 0/0           | 0/0       |
| fig1        | ok     | 0.088s | 0/0        | 21/12         | 0/0       |
| grid        | failed | 0.729s | 0/0        | 0/0           | 6/6       |
trace store resident: 21600000 bytes in 9 traces
  doduc@0x7: 1440000 bytes
store stats: traces 12 hit / 9 miss, timelines 240 hit / 12 miss, histograms 6 hit / 6 miss; evictions 2 trace / 1 hist, coalesced waits 4, resident 1 B traces + 2 B hists, poison recoveries 0
";
        let f = footer(text).unwrap();
        assert_eq!(f.store, [12, 9, 240, 12, 6, 6]);
        assert_eq!((f.coalesced_waits, f.evictions), (4, 3));
        assert_eq!(f.experiments.len(), 3);
        assert_eq!(
            f.experiments[2],
            ExpRow {
                id: "grid".to_string(),
                status: "failed".to_string(),
                wall_s: 0.729
            }
        );
        assert!(footer("no footer here").is_err());
    }
}
