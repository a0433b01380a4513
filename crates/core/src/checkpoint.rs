//! Backend checkpoints: complete state images for transactional updates.
//!
//! A [`Checkpoint`] is everything a backend needs to return to an earlier
//! state byte for byte: the native store's document (with its sign
//! column), or the relational backends' whole database together with the
//! mapping and the mapped tree (whose sign column mirrors the tables). The serving engine captures one with
//! every publication and restores it when an update fails past what full
//! re-annotation can repair (DESIGN.md §4d). It is the one rollback
//! mechanism; a durable engine replays its log only when it reopens.
//!
//! Checkpoints are images with value semantics, but they copy nothing:
//! the document, its index, each table and the mapping sit
//! behind `Arc`s shared with the backend and the published snapshot, so
//! capture and restore cost O(tables) and the backend's next write copies
//! only the part it touches.

use crate::backend::{RelationalState, Tree};
use crate::error::Error;
use xac_reldb::Database;

/// A full state image of one backend at one epoch.
///
/// Produced by [`crate::Backend::checkpoint`], consumed by
/// [`crate::Backend::restore`]. Opaque outside the crate: the only
/// public surface is the stamp identifying what it is an image *of*.
#[derive(Clone)]
pub struct Checkpoint {
    pub(crate) epoch: u64,
    pub(crate) backend: &'static str,
    pub(crate) data: CheckpointData,
}

/// The per-backend payload. Either arm restores by wholesale
/// replacement, so a restored backend is byte-identical to the
/// checkpointed one (modulo the epoch, which strictly advances).
#[derive(Clone)]
pub(crate) enum CheckpointData {
    /// Native store: the shared document (which carries the sign
    /// column) and its index.
    Native { tree: Option<Tree> },
    /// Relational store: the table image plus the mapping and the
    /// mapped tree, each part shared.
    Relational {
        db: Database,
        state: Option<RelationalState>,
    },
}

impl Checkpoint {
    /// The backend epoch this image was captured at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Name of the backend that produced the image; restore refuses a
    /// checkpoint from any other backend.
    pub fn backend(&self) -> &'static str {
        self.backend
    }

    /// The error restoring this image into `backend` returns when it
    /// comes from another backend.
    pub(crate) fn foreign_to(&self, backend: &str) -> Error {
        Error::System(format!("checkpoint from `{}` cannot restore backend `{backend}`", self.backend))
    }
}

impl std::fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpoint")
            .field("backend", &self.backend)
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}
