//! Child-process plumbing for shard servers.
//!
//! `study ext-scaling --remote-shards N` spawns N copies of its own binary
//! as `study serve-shard` children on loopback. The handshake is a single
//! stdout line — the child binds port 0 and prints
//! [`LISTENING_PREFIX`]` <addr>` once the listener is up — so no ports are
//! configured, no races on bind, and the parent can spawn any number of
//! shards concurrently.
//!
//! [`ShardChild`] kills the child on drop: an aborted experiment must not
//! leave orphan shard processes holding galleries.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The stdout handshake line prefix a shard server must print once bound.
pub const LISTENING_PREFIX: &str = "LISTENING";

/// How long [`spawn_shard`] waits for the handshake line before giving up
/// and killing the child.
pub const SPAWN_DEADLINE: Duration = Duration::from_secs(30);

/// A shard server child process. Killed (then reaped) on drop.
pub struct ShardChild {
    child: Child,
    /// The loopback address the child's listener is bound to.
    pub addr: SocketAddr,
}

impl ShardChild {
    /// The child's OS process id (tests use it for fault injection).
    pub fn id(&self) -> u32 {
        self.child.id()
    }

    /// Kills the child immediately (SIGKILL on unix) and reaps it.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Waits for the child to exit on its own (after a wire-level
    /// shutdown), killing it if `deadline` passes first. Returns whether
    /// the child exited by itself.
    pub fn wait_exit(&mut self, deadline: Duration) -> bool {
        let start = Instant::now();
        while start.elapsed() < deadline {
            match self.child.try_wait() {
                Ok(Some(_)) => return true,
                Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                Err(_) => break,
            }
        }
        self.kill();
        false
    }
}

impl Drop for ShardChild {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Spawns `exe args...` as a shard server child and waits for its
/// `LISTENING <addr>` handshake line on stdout.
///
/// The child's stderr is inherited (diagnostics flow through); stdout is
/// piped for the handshake and then left to drain into the pipe — shard
/// servers print nothing else.
pub fn spawn_shard(exe: &Path, args: &[&str]) -> std::io::Result<ShardChild> {
    let mut child = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .stdin(Stdio::null())
        .spawn()?;
    match handshake(&mut child) {
        Ok(addr) => Ok(ShardChild { child, addr }),
        Err(e) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(e)
        }
    }
}

/// Reads `child`'s stdout until its `LISTENING <addr>` line.
fn handshake(child: &mut Child) -> std::io::Result<SocketAddr> {
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| std::io::Error::other("shard child has no stdout pipe"))?;
    let mut reader = BufReader::new(stdout);
    let start = Instant::now();
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "shard child exited before printing its LISTENING line",
            ));
        }
        if let Some(rest) = line.trim().strip_prefix(LISTENING_PREFIX) {
            if let Ok(addr) = rest.trim().parse::<SocketAddr>() {
                return Ok(addr);
            }
        }
        // Tolerate stray lines (e.g. a wrapper script chattering) until
        // the deadline.
        if start.elapsed() > SPAWN_DEADLINE {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "shard child never printed its LISTENING line",
            ));
        }
    }
}
