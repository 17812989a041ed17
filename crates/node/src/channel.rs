//! [`ChannelTransport`]: the same fleet of [`NodeCore`]s, hosted on a
//! pool of real worker threads and driven over `std::sync::mpsc`
//! channels.
//!
//! Nodes are partitioned into contiguous chunks, one chunk per worker;
//! each worker owns its cores outright (no locks, no sharing) and
//! serves a strict request/reply protocol: every [`ToWorker`] message
//! the coordinator sends is answered by exactly one [`FromWorker`]
//! reply on a shared return channel. Because the coordinator never has
//! more than one routing request in flight, replies cannot interleave —
//! which, together with each core drawing only its private
//! `Stream::Node(id)` RNG, makes a channel-backed run byte-identical to
//! [`SimTransport`](crate::SimTransport) at any worker count.
//!
//! The one deliberately concurrent step is [`train_all`]: `TrainLocal`
//! emits no messages, so the coordinator broadcasts it and all workers
//! train their chunks simultaneously.
//!
//! [`train_all`]: crate::Transport::train_all

use crate::core::{NodeCore, NodeInput, TickKind};
use crate::transport::{Routed, Transport};
use glap::prelude::{Checkpointable, GlapConfig, Reader, SnapshotError, Writer};
use glap_cyclon::NodeId;
use glap_par::resolve_threads;
use glap_qlearn::{ArenaSlot, PairStore, QTablePair};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// Coordinator → worker requests.
enum ToWorker {
    /// Route one input to one owned node; reply `Out`.
    Input { node: NodeId, input: NodeInput },
    /// Run `TrainLocal` on every owned node; reply `TrainDone`.
    Train,
    /// Serialize every owned node; reply `Saved`.
    Save,
    /// Restore one owned node from its snapshot bytes; reply `Restored`.
    Restore { node: NodeId, bytes: Vec<u8> },
    /// Hand the cores back and exit; reply `Finished`.
    Finish,
}

/// Worker → coordinator replies.
enum FromWorker {
    Out(Routed),
    TrainDone,
    /// `(node id, snapshot bytes)` per owned node, ascending id.
    Saved(Vec<(NodeId, Vec<u8>)>),
    Restored {
        err: Option<String>,
    },
    Finished(Vec<NodeCore>),
}

fn worker_loop(
    mut cores: Vec<NodeCore>,
    base: NodeId,
    rx: Receiver<ToWorker>,
    tx: Sender<FromWorker>,
) {
    while let Ok(req) = rx.recv() {
        let reply = match req {
            ToWorker::Input { node, input } => {
                FromWorker::Out(cores[(node - base) as usize].handle(input))
            }
            ToWorker::Train => {
                for core in &mut cores {
                    let outs = core.handle(NodeInput::Tick(TickKind::TrainLocal));
                    debug_assert!(outs.is_empty(), "TrainLocal must not emit messages");
                }
                FromWorker::TrainDone
            }
            ToWorker::Save => FromWorker::Saved(
                cores
                    .iter()
                    .map(|core| {
                        let mut w = Writer::new();
                        core.save(&mut w);
                        (core.id(), w.into_bytes())
                    })
                    .collect(),
            ),
            ToWorker::Restore { node, bytes } => {
                let mut r = Reader::new(&bytes);
                let err = cores[(node - base) as usize]
                    .restore(&mut r)
                    .err()
                    .map(|e| e.to_string());
                FromWorker::Restored { err }
            }
            ToWorker::Finish => {
                let _ = tx.send(FromWorker::Finished(std::mem::take(&mut cores)));
                return;
            }
        };
        if tx.send(reply).is_err() {
            return;
        }
    }
}

/// Channel-backed [`Transport`]: N nodes multiplexed over a worker
/// thread pool, all traffic as serialized wire payloads over mpsc
/// channels. See the module docs for the determinism argument.
pub struct ChannelTransport {
    n: usize,
    chunk: usize,
    to_workers: Vec<Sender<ToWorker>>,
    from_workers: Receiver<FromWorker>,
    handles: Vec<JoinHandle<()>>,
}

impl ChannelTransport {
    /// `n` fresh nodes with ids `0..n`, spread over `threads` workers
    /// (`None` resolves through [`glap_par::resolve_threads`]: the
    /// `GLAP_THREADS` env var, then all cores).
    pub fn new(
        n: usize,
        cfg: &GlapConfig,
        master_seed: u64,
        threads: Option<usize>,
    ) -> ChannelTransport {
        let workers = resolve_threads(threads).min(n.max(1));
        let chunk = n.div_ceil(workers);
        let (from_tx, from_rx) = channel();
        let mut to_workers = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let lo = w * chunk;
            let hi = ((w + 1) * chunk).min(n);
            let cores: Vec<NodeCore> = (lo as NodeId..hi as NodeId)
                .map(|id| NodeCore::new(id, cfg, master_seed))
                .collect();
            let (to_tx, to_rx) = channel();
            let tx = from_tx.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("glap-node-{lo}..{hi}"))
                    .spawn(move || worker_loop(cores, lo as NodeId, to_rx, tx))
                    .expect("spawn node worker"),
            );
            to_workers.push(to_tx);
        }
        ChannelTransport {
            n,
            chunk,
            to_workers,
            from_workers: from_rx,
            handles,
        }
    }

    /// Number of worker threads hosting the nodes.
    pub fn workers(&self) -> usize {
        self.to_workers.len()
    }

    fn owner(&self, node: NodeId) -> usize {
        node as usize / self.chunk
    }

    fn send(&self, node: NodeId, req: ToWorker) {
        self.to_workers[self.owner(node)]
            .send(req)
            .expect("node worker died");
    }

    fn recv(&self) -> FromWorker {
        self.from_workers.recv().expect("node worker died")
    }

    /// Sends `Finish` to every worker, collects the cores and joins the
    /// threads. Idempotent (workers already gone = nothing to collect).
    fn shutdown(&mut self) -> Vec<NodeCore> {
        let mut cores = Vec::with_capacity(self.n);
        let senders: Vec<Sender<ToWorker>> = self.to_workers.drain(..).collect();
        for tx in senders {
            if tx.send(ToWorker::Finish).is_ok() {
                match self.recv() {
                    FromWorker::Finished(chunk) => cores.extend(chunk),
                    _ => unreachable!("worker replied out of protocol"),
                }
            }
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        cores.sort_by_key(|c| c.id());
        cores
    }
}

impl Transport for ChannelTransport {
    fn n_nodes(&self) -> usize {
        self.n
    }

    fn dispatch(&mut self, node: NodeId, input: NodeInput) -> Routed {
        self.send(node, ToWorker::Input { node, input });
        match self.recv() {
            FromWorker::Out(outs) => outs,
            _ => unreachable!("worker replied out of protocol"),
        }
    }

    fn train_all(&mut self) {
        // The only broadcast: all workers train their chunks in
        // parallel, then the coordinator collects one TrainDone each.
        for tx in &self.to_workers {
            tx.send(ToWorker::Train).expect("node worker died");
        }
        for _ in 0..self.to_workers.len() {
            match self.recv() {
                FromWorker::TrainDone => {}
                _ => unreachable!("worker replied out of protocol"),
            }
        }
    }

    fn save_nodes(&mut self, w: &mut Writer) {
        let mut parts: Vec<(NodeId, Vec<u8>)> = Vec::with_capacity(self.n);
        for tx in &self.to_workers {
            tx.send(ToWorker::Save).expect("node worker died");
        }
        for _ in 0..self.to_workers.len() {
            match self.recv() {
                FromWorker::Saved(chunk) => parts.extend(chunk),
                _ => unreachable!("worker replied out of protocol"),
            }
        }
        parts.sort_by_key(|(id, _)| *id);
        // Length-prefixed per node so restore can route each blob to its
        // owner without understanding the node encoding.
        for (_, bytes) in &parts {
            w.put_bytes(bytes);
        }
    }

    fn restore_nodes(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        for node in 0..self.n as NodeId {
            let bytes = r.get_bytes()?;
            self.send(node, ToWorker::Restore { node, bytes });
            match self.recv() {
                FromWorker::Restored { err: None } => {}
                FromWorker::Restored { err: Some(e) } => return Err(SnapshotError::Corrupt(e)),
                _ => unreachable!("worker replied out of protocol"),
            }
        }
        Ok(())
    }

    fn into_tables(self) -> Vec<QTablePair> {
        self.into_slots().iter().map(ArenaSlot::export).collect()
    }

    fn into_slots(mut self) -> Vec<ArenaSlot> {
        self.shutdown()
            .into_iter()
            .map(NodeCore::into_table)
            .collect()
    }
}

impl Drop for ChannelTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimTransport;

    fn bootstrap<T: Transport>(t: &mut T) {
        let n = t.n_nodes() as NodeId;
        for id in 0..n {
            t.dispatch(
                id,
                NodeInput::Bootstrap {
                    peers: (0..n).filter(|&p| p != id).collect(),
                },
            );
        }
    }

    /// Drives the same scripted exchange through both transports and
    /// asserts identical outgoing bytes at every step.
    fn run_script<T: Transport>(t: &mut T) -> Vec<Routed> {
        bootstrap(t);
        let mut log = Vec::new();
        for round in 0..5 {
            for id in 0..t.n_nodes() as NodeId {
                let outs = t.dispatch(id, NodeInput::Tick(TickKind::Shuffle));
                // Deliver inline, recording everything.
                let mut queue: Vec<(NodeId, Routed)> = vec![(id, outs)];
                while let Some((from, outs)) = queue.pop() {
                    log.push(outs.clone());
                    for (to, payload) in outs {
                        let next = t.dispatch(to, NodeInput::Deliver { from, payload });
                        queue.push((to, next));
                    }
                }
            }
            if round % 2 == 0 {
                t.train_all();
            }
        }
        log
    }

    #[test]
    fn channel_matches_sim_byte_for_byte() {
        let cfg = GlapConfig {
            learning_iterations: 3,
            ..Default::default()
        };
        let mut sim = SimTransport::new(6, &cfg, 17);
        let sim_log = run_script(&mut sim);
        for threads in [1, 3] {
            let mut chan = ChannelTransport::new(6, &cfg, 17, Some(threads));
            assert_eq!(chan.workers(), threads);
            let chan_log = run_script(&mut chan);
            assert_eq!(sim_log, chan_log, "threads={threads}");
            // Final tables identical too.
            let st: Vec<_> = SimTransport::new(0, &cfg, 0).into_tables();
            assert!(st.is_empty());
            let a = {
                let mut fresh = SimTransport::new(6, &cfg, 17);
                run_script(&mut fresh);
                fresh.into_tables()
            };
            let b = chan.into_tables();
            let enc = |ts: &[QTablePair]| {
                let mut w = Writer::new();
                for t in ts {
                    t.save(&mut w);
                }
                w.into_bytes()
            };
            assert_eq!(enc(&a), enc(&b));
        }
    }

    #[test]
    fn channel_save_restore_round_trips() {
        let cfg = GlapConfig::default();
        let mut t = ChannelTransport::new(5, &cfg, 23, Some(2));
        bootstrap(&mut t);
        for id in 0..5u32 {
            t.dispatch(id, NodeInput::Tick(TickKind::Shuffle));
        }
        let mut w = Writer::new();
        t.save_nodes(&mut w);
        let bytes = w.into_bytes();

        // Restore into a fresh pool with a different worker count.
        let mut fresh = ChannelTransport::new(5, &cfg, 99, Some(3));
        let mut r = Reader::new(&bytes);
        fresh.restore_nodes(&mut r).unwrap();
        assert!(r.is_exhausted());
        let mut w2 = Writer::new();
        fresh.save_nodes(&mut w2);
        assert_eq!(bytes, w2.into_bytes());

        // The framing is transport-independent: the same snapshot
        // restores into the in-process oracle and re-saves identically.
        let mut sim = SimTransport::new(5, &cfg, 7);
        let mut r = Reader::new(&bytes);
        sim.restore_nodes(&mut r).unwrap();
        assert!(r.is_exhausted());
        let mut w3 = Writer::new();
        sim.save_nodes(&mut w3);
        assert_eq!(bytes, w3.into_bytes());
    }

    #[test]
    fn drop_without_finish_joins_workers() {
        let cfg = GlapConfig::default();
        let t = ChannelTransport::new(4, &cfg, 1, Some(2));
        drop(t); // must not hang or leak threads
    }
}
