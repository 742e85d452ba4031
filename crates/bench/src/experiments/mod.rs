//! The experiment implementations, one module per group. See DESIGN.md §4
//! for the experiment-id ↔ paper-source mapping.

pub mod amdahl;
pub mod attribution;
pub mod bplus;
pub mod bridge_x;
pub mod faults;
pub mod fig5;
pub mod locality;
pub mod machine_os;
pub mod models;
pub mod pdes_x;
pub mod replay_x;
pub mod san_x;
pub mod snapshot_x;
pub mod speedups;

pub use amdahl::{tab7_alloc_amdahl, tab7_alloc_amdahl_run, tab8_crowd, tab8_crowd_run};
pub use attribution::{tab16_attribution, tab16_attribution_full, tab16_attribution_run};
pub use bplus::{tab14_bplus, tab14_bplus_run};
pub use bridge_x::{tab10_bridge, tab10_bridge_run};
pub use faults::{tab15_faults, tab15_faults_run};
pub use fig5::{
    fig5_gauss, fig5_gauss_at, fig5_gauss_at_ckpt, fig5_gauss_at_seeded, fig5_gauss_at_seeded_ckpt,
    fig5_gauss_run,
};
pub use locality::{tab4_hough_locality, tab4_hough_locality_run, tab5_scatter, tab5_scatter_run};
pub use machine_os::{
    tab1_memory, tab1_memory_run, tab2_primitives, tab2_primitives_run, tab3_contention,
    tab3_contention_run, tab6_switch, tab6_switch_run,
};
pub use models::{tab12_models, tab12_models_run, tab13_linda, tab13_linda_run};
pub use pdes_x::{tab22_pdes, tab22_pdes_run};
pub use replay_x::{tab9_replay, tab9_replay_run};
pub use san_x::{tab18_races, tab18_races_full, tab18_races_run};
pub use snapshot_x::{t21_cut_snapshot, t21_resume_from, tab21_snapshot, tab21_snapshot_run};
pub use speedups::{tab11_speedups, tab11_speedups_run};
