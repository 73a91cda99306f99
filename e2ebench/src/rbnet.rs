//! A two-node loopback `ClusterNode` ring (`replicas = 1`, library
//! defaults otherwise) and RBNET clients for it: the net and cluster
//! layers of the traced run's ledger are measured on this pair.

use recblock_cluster::{ClusterConfig, ClusterNode};
use recblock_net::{NetClient, NetConfig};
use recblock_serve::{ServeConfig, SolveService};
use recblock_store::PlanKey;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

pub const TENANT: &str = "bench";

pub fn node_config(name: &str) -> ClusterConfig {
    let mut c = ClusterConfig::new(name);
    c.replicas = 1;
    c
}

/// Two joined cluster nodes on loopback.
pub struct Pair {
    nodes: [ClusterNode<f64>; 2],
}

impl Pair {
    pub fn start() -> Result<Pair, String> {
        let start = |name: &str| {
            let svc = Arc::new(SolveService::<f64>::new(ServeConfig::default()));
            ClusterNode::start("127.0.0.1:0", node_config(name), NetConfig::default(), svc)
                .map_err(|e| format!("start {name}: {e}"))
        };
        let nodes = [start("bench-a")?, start("bench-b")?];
        nodes[1].join(&nodes[0].addr().to_string()).map_err(|e| format!("join: {e}"))?;
        if nodes.iter().any(|n| n.ring().members.len() != 2) {
            return Err("ring did not converge to two members".into());
        }
        Ok(Pair { nodes })
    }

    fn owner_index(&self, key: &PlanKey) -> usize {
        let owners = self.nodes[0].coordinator().owners_of(key);
        let name = owners.first().map(|(n, _)| n.as_str()).unwrap_or("");
        usize::from(self.nodes[1].name() == name)
    }

    pub fn owner(&self, key: &PlanKey) -> &ClusterNode<f64> {
        &self.nodes[self.owner_index(key)]
    }

    pub fn other(&self, key: &PlanKey) -> &ClusterNode<f64> {
        &self.nodes[1 - self.owner_index(key)]
    }

    pub fn stop(self) {
        let [a, b] = self.nodes;
        b.stop();
        a.stop();
    }
}

pub fn client(addr: &SocketAddr) -> Result<NetClient, String> {
    let mut c = NetClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    c.set_timeout(Some(Duration::from_secs(30))).map_err(|e| format!("timeout: {e}"))?;
    Ok(c)
}
