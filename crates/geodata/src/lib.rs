//! # dcd-geodata
//!
//! A procedural stand-in for the paper's study area (§3): the West Fork Big
//! Blue Watershed, Nebraska — a gently sloping loess plain under intensive
//! agriculture, imaged by 1 m NAIP 4-band orthophotos, with 2022 manually
//! digitized drainage-crossing locations.
//!
//! The generator builds, from a seed:
//!
//! 1. a fractal **DEM** with the plain's west→east descent ([`dem`]);
//! 2. a **stream network** via D8 flow routing and flow accumulation, after
//!    priority-flood depression filling ([`hydrology`]);
//! 3. a rectangular **road grid** (the dense section-line roads of the
//!    region), whose embankments create the paper's "digital dams";
//! 4. **drainage crossings** wherever a road crosses a stream ([`scene`]);
//! 5. 4-band (R, G, B, NIR) **imagery** rendered from land cover ([`render`]);
//! 6. a labelled **patch dataset** of 100×100 clips centred on crossings
//!    plus negative clips, with an 80/20 train/test split ([`dataset`]).
//!
//! The hydrology module also reproduces the paper's Fig 1 motivation: flow
//! routing over a DEM with road embankments fragments the drainage network,
//! and breaching the DEM at detected crossing locations restores
//! connectivity ([`hydrology::connectivity`]).

pub mod dataset;
pub mod dem;
pub mod grid;
pub mod hydrology;
pub mod render;
pub mod scene;
pub mod visualize;

pub use dataset::{normalize_reflectance, DatasetConfig, PatchDataset};
pub use dem::{generate_dem, DemConfig};
pub use grid::Grid;
pub use hydrology::{connectivity, fill_depressions, flow_accumulation, flow_directions, D8};
pub use render::render_bands;
pub use scene::{generate_scene, Scene, SceneConfig};
pub use visualize::{bands_to_cir, bands_to_rgb, grid_to_gray, scene_overlay, RgbImage};
