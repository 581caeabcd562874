//! # bench — benchmark harness
//!
//! Criterion benchmarks in `benches/`:
//!
//! * `microbench` — hot paths of the simulation substrate (event queue,
//!   TCP transfer, RLC segmentation, long-jump mapping, UI parsing);
//! * `experiments` — one benchmark per reproduced table/figure, running the
//!   corresponding §7 experiment at reduced scale. These double as
//!   regression guards: a bench that suddenly runs much longer usually
//!   means a simulation livelock or a blown-up event cascade.
//! * `campaign` — the quick Fig. 17 campaign timed at 1, 2 and 4 workers.
//!
//! Run with `cargo bench --workspace`; the end-to-end benchmark is `qoebench/`.
