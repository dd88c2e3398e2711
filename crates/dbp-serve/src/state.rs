//! Service checkpoints: one manifest line plus K session snapshot lines.
//!
//! A serve checkpoint is a text file:
//!
//! ```text
//! line 1      {"format":"dbp-serve-checkpoint","version":1,"seq":3,...}
//! line 2..K+1 one dbp-resilience checkpoint document per shard, in
//!             shard-index order
//! ```
//!
//! The manifest records the coordinator state a restart needs — id
//! watermark + the sorted ids decided above it, stream clock,
//! per-tenant counters, config fingerprint (algo/router/shards/fleet
//! cap) — and the per-shard lines reuse
//! [`dbp_resilience::snapshot_to_json`] verbatim, so every
//! bit-identity guarantee the resilience layer proves carries over.
//!
//! Files are written to `serve-<seq>.ckpt` via a temp file + rename, so
//! a crash mid-write leaves a torn *temp* file, never a torn checkpoint
//! under the canonical name. A kill between `write` and `rename`, or a
//! filesystem that reorders the rename, can still surface a torn file —
//! which is why [`latest_good_checkpoint`] walks candidates newest-first
//! and falls back to the previous good snapshot on any decode error
//! (the torn-checkpoint regression tests drive this path).

use dbp_core::stream::SessionSnapshot;
use dbp_core::{DbpError, Time};
use dbp_obs::json::{escape, parse, Json};
use dbp_resilience::{snapshot_from_json, snapshot_to_json};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The `format` tag of the manifest line.
pub const SERVE_CHECKPOINT_FORMAT: &str = "dbp-serve-checkpoint";
/// Current manifest layout version.
pub const SERVE_CHECKPOINT_VERSION: u32 = 1;
/// Checkpoint files kept on disk (newest N; older ones are pruned).
pub const KEPT_CHECKPOINTS: usize = 3;

fn bad(what: impl Into<String>) -> DbpError {
    DbpError::Trace {
        line: 0,
        what: what.into(),
    }
}

/// Per-tenant accounting, checkpointed with the service state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Tenant label.
    pub tenant: String,
    /// Submissions seen (including rejected ones).
    pub submitted: u64,
    /// Jobs placed.
    pub placed: u64,
    /// Jobs shed by the fleet cap.
    pub shed: u64,
    /// Jobs rejected (duplicate / out-of-order / invalid).
    pub rejected: u64,
}

/// Everything a service restart needs to resume bit-identically.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeCheckpoint {
    /// Monotonic checkpoint sequence number (1-based).
    pub seq: u64,
    /// Packer roster name.
    pub algo: String,
    /// Router spec (`ShardRouter::name()`).
    pub router: String,
    /// Global fleet cap, if admission control is on.
    pub fleet_cap: Option<u64>,
    /// The stream clock at checkpoint time.
    pub last_arrival: Option<Time>,
    /// Global id watermark (every id below it was decided).
    pub watermark: u32,
    /// Decided ids at or above the watermark, sorted.
    pub above: Vec<u32>,
    /// Jobs placed.
    pub placed: u64,
    /// Jobs shed.
    pub shed: u64,
    /// Jobs rejected.
    pub rejected: u64,
    /// Global decision sequence as of this checkpoint: the WAL replay
    /// floor. Absent in pre-WAL checkpoints, which decode as 0 (those
    /// directories hold no WAL, so an empty replay is exactly right).
    pub decision_seq: u64,
    /// Per-tenant counters, sorted by tenant label.
    pub tenants: Vec<TenantCounters>,
    /// One session snapshot per shard, in shard-index order.
    pub sessions: Vec<SessionSnapshot>,
}

/// Encodes a checkpoint as its multi-line document.
pub fn encode(ck: &ServeCheckpoint) -> String {
    let mut out = String::with_capacity(512);
    let _ = write!(
        out,
        "{{\"format\":\"{SERVE_CHECKPOINT_FORMAT}\",\"version\":{SERVE_CHECKPOINT_VERSION},\
         \"seq\":{},\"algo\":\"{}\",\"router\":\"{}\",\"shards\":{}",
        ck.seq,
        escape(&ck.algo),
        escape(&ck.router),
        ck.sessions.len()
    );
    match ck.fleet_cap {
        Some(c) => {
            let _ = write!(out, ",\"fleet_cap\":{c}");
        }
        None => out.push_str(",\"fleet_cap\":null"),
    }
    match ck.last_arrival {
        Some(t) => {
            let _ = write!(out, ",\"last_arrival\":{t}");
        }
        None => out.push_str(",\"last_arrival\":null"),
    }
    let _ = write!(
        out,
        ",\"watermark\":{},\"placed\":{},\"shed\":{},\"rejected\":{},\"decision_seq\":{}",
        ck.watermark, ck.placed, ck.shed, ck.rejected, ck.decision_seq
    );
    out.push_str(",\"above\":[");
    for (i, id) in ck.above.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{id}");
    }
    out.push_str("],\"tenants\":[");
    for (i, t) in ck.tenants.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"tenant\":\"{}\",\"submitted\":{},\"placed\":{},\"shed\":{},\"rejected\":{}}}",
            escape(&t.tenant),
            t.submitted,
            t.placed,
            t.shed,
            t.rejected
        );
    }
    out.push_str("]}\n");
    for snap in &ck.sessions {
        out.push_str(&snapshot_to_json(snap));
        out.push('\n');
    }
    out
}

fn u64_field(v: &Json, key: &str) -> Result<u64, DbpError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| bad(format!("manifest field {key:?} missing or not an integer")))
}

fn str_field(v: &Json, key: &str) -> Result<String, DbpError> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| bad(format!("manifest field {key:?} missing or not a string")))
}

/// Decodes a checkpoint document.
pub fn decode(text: &str) -> Result<ServeCheckpoint, DbpError> {
    let mut lines = text.lines();
    let manifest = lines.next().ok_or_else(|| bad("empty checkpoint file"))?;
    let doc = parse(manifest).map_err(|e| bad(format!("manifest: {e}")))?;
    let format = str_field(&doc, "format")?;
    if format != SERVE_CHECKPOINT_FORMAT {
        return Err(bad(format!(
            "not a serve checkpoint: format {format:?} (expected {SERVE_CHECKPOINT_FORMAT:?})"
        )));
    }
    let version = u64_field(&doc, "version")?;
    if version != u64::from(SERVE_CHECKPOINT_VERSION) {
        return Err(bad(format!(
            "unsupported serve checkpoint version {version} (this build reads \
             {SERVE_CHECKPOINT_VERSION})"
        )));
    }
    let shards = u64_field(&doc, "shards")? as usize;
    let fleet_cap = match doc.get("fleet_cap") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| bad("manifest field \"fleet_cap\" is not an unsigned integer"))?,
        ),
    };
    let last_arrival = match doc.get("last_arrival") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_i64()
                .ok_or_else(|| bad("manifest field \"last_arrival\" is not an integer"))?,
        ),
    };
    let watermark = u64_field(&doc, "watermark")?
        .try_into()
        .map_err(|_| bad("manifest field \"watermark\" overflows u32"))?;
    let mut above = Vec::new();
    if let Some(Json::Arr(ids)) = doc.get("above") {
        for v in ids {
            above.push(
                v.as_u64()
                    .and_then(|x| u32::try_from(x).ok())
                    .ok_or_else(|| bad("entry in \"above\" is not a u32"))?,
            );
        }
    } else {
        return Err(bad("manifest field \"above\" missing or not an array"));
    }
    let mut tenants = Vec::new();
    if let Some(Json::Arr(ts)) = doc.get("tenants") {
        for t in ts {
            tenants.push(TenantCounters {
                tenant: str_field(t, "tenant")?,
                submitted: u64_field(t, "submitted")?,
                placed: u64_field(t, "placed")?,
                shed: u64_field(t, "shed")?,
                rejected: u64_field(t, "rejected")?,
            });
        }
    } else {
        return Err(bad("manifest field \"tenants\" missing or not an array"));
    }
    let mut sessions = Vec::with_capacity(shards);
    for i in 0..shards {
        let line = lines
            .next()
            .ok_or_else(|| bad(format!("truncated checkpoint: shard {i} snapshot missing")))?;
        sessions
            .push(snapshot_from_json(line.trim_end()).map_err(|e| bad(format!("shard {i}: {e}")))?);
    }
    Ok(ServeCheckpoint {
        seq: u64_field(&doc, "seq")?,
        algo: str_field(&doc, "algo")?,
        router: str_field(&doc, "router")?,
        fleet_cap,
        last_arrival,
        watermark,
        above,
        placed: u64_field(&doc, "placed")?,
        shed: u64_field(&doc, "shed")?,
        rejected: u64_field(&doc, "rejected")?,
        decision_seq: doc.get("decision_seq").and_then(Json::as_u64).unwrap_or(0),
        tenants,
        sessions,
    })
}

/// The canonical file name of checkpoint `seq`.
pub fn checkpoint_file_name(seq: u64) -> String {
    format!("serve-{seq:010}.ckpt")
}

/// Parses a `serve-<seq>.ckpt` file name back to its sequence number.
fn seq_of(name: &str) -> Option<u64> {
    name.strip_prefix("serve-")?
        .strip_suffix(".ckpt")?
        .parse()
        .ok()
}

/// Writes checkpoint `ck` into `dir` durably — temp file, `sync_all`,
/// rename, parent-directory fsync (via
/// [`dbp_resilience::durable_write`]) — and prunes all but the newest
/// [`KEPT_CHECKPOINTS`] files. Returns the final path.
pub fn write_serve_checkpoint(dir: &Path, ck: &ServeCheckpoint) -> Result<PathBuf, DbpError> {
    let mkdir =
        dbp_resilience::failpoint::io_op("ckpt_mkdir").and_then(|()| std::fs::create_dir_all(dir));
    mkdir.map_err(|e| bad(format!("cannot create {}: {e}", dir.display())))?;
    let path = dir.join(checkpoint_file_name(ck.seq));
    dbp_resilience::durable_write(&path, encode(ck).as_bytes())
        .map_err(|e| bad(format!("committing {}: {e}", path.display())))?;
    // Prune: keep the newest KEPT_CHECKPOINTS by sequence.
    let mut all = list_checkpoints(dir)?;
    while all.len() > KEPT_CHECKPOINTS {
        let (_, oldest) = all.remove(0);
        if dbp_resilience::failpoint::io_op("ckpt_prune").is_ok() {
            let _ = std::fs::remove_file(oldest);
        }
    }
    Ok(path)
}

/// The WAL replay floor of the *oldest* checkpoint still on disk: every
/// decision at or below it is covered by every restorable checkpoint,
/// so WAL segments that only hold such decisions are prunable.
pub fn kept_checkpoint_floor(dir: &Path) -> Result<Option<u64>, DbpError> {
    let all = list_checkpoints(dir)?;
    match all.first() {
        Some((_, path)) => Ok(Some(read_serve_checkpoint(path)?.decision_seq)),
        None => Ok(None),
    }
}

/// Reads a checkpoint file; torn or corrupt files surface as typed
/// errors, never panics.
pub fn read_serve_checkpoint(path: &Path) -> Result<ServeCheckpoint, DbpError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| bad(format!("cannot read checkpoint {}: {e}", path.display())))?;
    decode(&text)
}

/// Checkpoint files in `dir`, sorted by ascending sequence number.
fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>, DbpError> {
    let mut found = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(found),
        Err(e) => return Err(bad(format!("cannot list {}: {e}", dir.display()))),
    };
    for entry in entries {
        let entry = entry.map_err(|e| bad(format!("cannot list {}: {e}", dir.display())))?;
        if let Some(seq) = entry.file_name().to_str().and_then(seq_of) {
            found.push((seq, entry.path()));
        }
    }
    found.sort();
    Ok(found)
}

/// Walks the checkpoints in `dir` newest-first and loads the first one
/// that decodes — the restart path's torn-file fallback. Returns the
/// loaded checkpoint plus the (newer) corrupt files that were skipped,
/// or `None` when the directory holds no loadable checkpoint.
pub fn latest_good_checkpoint(
    dir: &Path,
) -> Result<Option<(ServeCheckpoint, Vec<PathBuf>)>, DbpError> {
    let mut all = list_checkpoints(dir)?;
    let mut skipped = Vec::new();
    while let Some((_, path)) = all.pop() {
        match read_serve_checkpoint(&path) {
            Ok(ck) => return Ok(Some((ck, skipped))),
            Err(_) => skipped.push(path),
        }
    }
    Ok(None)
}
