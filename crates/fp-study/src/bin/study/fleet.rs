//! `serve-shard` children of this very binary on loopback, behind a
//! coordinator: the one spawn / connect / teardown block the cross-process
//! producers (`ext-scaling`, `load`, `check-kernel`, `check-store`,
//! `check-dist-trace`) share.

use std::net::SocketAddr;
use std::time::Duration;

use fp_index::IndexConfig;
use fp_serve::proc::{spawn_shard, ShardChild};
use fp_serve::{Coordinator, RetryPolicy};

/// Per-rpc deadline of every harness connection (coordinator and raw
/// [`fp_serve::MuxConn`]s alike).
pub const RPC_DEADLINE: Duration = Duration::from_secs(60);

/// How long a child gets to exit by itself after a wire-level shutdown.
const EXIT_DEADLINE: Duration = Duration::from_secs(5);

/// Children are killed on every exit path ([`ShardChild`] kills on drop), so
/// dropping a fleet is a crash and [`ShardFleet::retire`] is the clean way
/// out; errors are strings so a failed rung shows up in its report instead
/// of aborting the run.
pub struct ShardFleet {
    children: Vec<ShardChild>,
}

impl ShardFleet {
    /// Spawns `count` children; child `k` runs this executable's
    /// `serve-shard` followed by `extra_args(k)`.
    pub fn spawn(
        count: usize,
        extra_args: impl Fn(usize) -> Vec<String>,
    ) -> Result<ShardFleet, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
        let mut children = Vec::with_capacity(count);
        for k in 0..count {
            let extra = extra_args(k);
            let mut args = vec!["serve-shard"];
            args.extend(extra.iter().map(String::as_str));
            children.push(
                spawn_shard(&exe, &args).map_err(|e| format!("spawn {exe:?} {args:?}: {e}"))?,
            );
        }
        Ok(ShardFleet { children })
    }

    /// The children's listener addresses; shard `k` is `addrs()[k]`.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.children.iter().map(|c| c.addr).collect()
    }

    /// A coordinator over the whole fleet.
    pub fn connect(&self, config: IndexConfig) -> Result<Coordinator, String> {
        Coordinator::connect(&self.addrs(), config, RPC_DEADLINE, RetryPolicy::default())
            .map_err(|e| e.to_string())
    }

    /// Clean wire-level shutdown through `remote`, then reap; stragglers
    /// are killed.
    pub fn retire(mut self, remote: &Coordinator) {
        let _ = remote.shutdown_all();
        for child in &mut self.children {
            child.wait_exit(EXIT_DEADLINE);
        }
    }
}
