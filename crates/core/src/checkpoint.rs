//! Backend checkpoints: complete state images for transactional updates.
//!
//! A [`Checkpoint`] is everything a backend needs to return to an earlier
//! state byte for byte: the native store's document plus sign map, or
//! the relational backends' whole database (catalog + every table's
//! storage) together with the shredding state. The serving engine
//! captures one with every publication and restores it when an update
//! fails past the point the existing full-re-annotation fallback can
//! repair — see `xac-serve`'s degradation ladder and DESIGN.md §4d. It
//! is the one rollback mechanism: a durable engine stages the checkpoint
//! before its WAL commit and restores it like a volatile one, and
//! replays the log only when it reopens.
//!
//! Checkpoints are images rather than logs, with value semantics, but
//! they copy nothing: the document, each table and the shredding state
//! sit behind `Arc`s that the checkpoint shares with the backend and the
//! published snapshot. Capture and restore cost O(tables); the backend's
//! first write after a capture copies only the part it touches (one
//! table, or the document on a structural update). Restore stays a
//! wholesale replacement — no replay, no partial undo.

use crate::backend::RelationalState;
use std::sync::Arc;
use xac_reldb::Database;
use xac_xmlstore::StoredDocument;

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
    /// Native store: the shared document behind its element-name index
    /// (which carries the sign map) plus the default sign.
    Native {
        sdoc: Option<Arc<StoredDocument>>,
        default_sign: char,
    },
    /// Relational store: the table image plus the shredding state
    /// (mapping, document tree, id bookkeeping), each part shared.
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
}

impl std::fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpoint")
            .field("backend", &self.backend)
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}
