//! Directory-backed model registry: `DCAM` artifacts keyed by model id,
//! loaded lazily and held for the registry's lifetime.
//!
//! A registry is the serving fleet's view of "what models exist": every
//! `<id>.dcam` file in the registry directory is an entry, but nothing
//! is read from disk until the first [`ModelRegistry::get`] for that id
//! — loading a large zoo directory costs one `readdir`. Once loaded, an
//! engine stays in the registry until the registry is dropped, as a
//! compiled model stays in its CAM arrays. Engines built in-process
//! (tests, benches) can be [`ModelRegistry::register`]ed directly
//! without touching disk.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use deepcam_core::DeepCamEngine;

use crate::error::{Result, ServeError};

/// File extension of serialized [`deepcam_core::CompiledModel`]
/// artifacts.
pub const ARTIFACT_EXT: &str = "dcam";

/// One registry entry's public description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelInfo {
    /// Registry id (the artifact's file stem, or the name it was
    /// registered under).
    pub id: String,
    /// Whether the engine is loaded (it then stays loaded for the
    /// registry's lifetime).
    pub loaded: bool,
    /// Source model name (`None` until first load).
    pub model_name: Option<String>,
    /// Dot layers compiled to CAM form (`None` until first load).
    pub dot_layers: Option<usize>,
    /// Whether the artifact is negative-cached as corrupt: its last
    /// load failed and the file has not changed since, so `get`s fail
    /// fast without re-reading it.
    pub quarantined: bool,
}

/// Negative-cache record of a corrupt artifact, keyed to the exact
/// file state (length + mtime) whose load failed. A matching file on a
/// later `get` fails fast without re-reading or re-parsing it; a file
/// whose key changed (repaired, rewritten) gets a fresh load attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Quarantine {
    len: u64,
    mtime: Option<std::time::SystemTime>,
    detail: String,
}

enum Entry {
    /// Indexed from the registry directory and not loaded yet.
    Cold {
        path: PathBuf,
        /// Set while the artifact is negative-cached as corrupt.
        quarantine: Option<Quarantine>,
    },
    /// Loaded from its artifact or registered in-process.
    Loaded(Arc<DeepCamEngine>),
}

/// A thread-safe, lazily-loading model store. See the
/// [module docs](self).
#[derive(Default)]
pub struct ModelRegistry {
    entries: Mutex<BTreeMap<String, Entry>>,
}

impl ModelRegistry {
    /// An empty registry (models arrive via
    /// [`ModelRegistry::register`]).
    pub fn new() -> Self {
        ModelRegistry::default()
    }

    /// Opens a registry over `dir`, indexing every `*.dcam` file by its
    /// stem. Files are *not* read yet — corrupt artifacts surface as
    /// typed errors on first [`ModelRegistry::get`], not here.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] when the directory cannot be read.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref();
        let io = |e: std::io::Error| {
            ServeError::Io(format!("reading registry dir {}: {e}", dir.display()))
        };
        let mut entries = BTreeMap::new();
        for item in std::fs::read_dir(dir).map_err(io)? {
            let path = item.map_err(io)?.path();
            if path.extension().and_then(|e| e.to_str()) != Some(ARTIFACT_EXT) {
                continue;
            }
            let Some(id) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            let id = id.to_string();
            entries.insert(
                id,
                Entry::Cold {
                    path,
                    quarantine: None,
                },
            );
        }
        Ok(ModelRegistry {
            entries: Mutex::new(entries),
        })
    }

    /// Registers an in-process engine under `id` (replacing any previous
    /// entry with that id) and returns the shared handle.
    pub fn register(&self, id: impl Into<String>, engine: DeepCamEngine) -> Arc<DeepCamEngine> {
        let engine = Arc::new(engine);
        let mut entries = self.entries.lock().expect("registry lock");
        entries.insert(id.into(), Entry::Loaded(Arc::clone(&engine)));
        engine
    }

    /// The engine for `id`, loading its artifact on first use.
    ///
    /// A cold load runs **outside** the registry lock — reading and
    /// decoding a large artifact never stalls `get`s for models that
    /// are already loaded. If two callers race the same cold model,
    /// both load, but every caller ends up sharing whichever engine
    /// was cached first.
    ///
    /// # Errors
    ///
    /// [`ServeError::ModelNotFound`] for unknown ids;
    /// [`ServeError::BadArtifact`] when the artifact fails to read,
    /// decode or validate — or when it is quarantined: a failed load
    /// negative-caches the file's (length, mtime) key, and as long as
    /// the file on disk still matches, later `get`s fail fast without
    /// re-reading a broken multi-MiB artifact. Repairing the file
    /// (which changes the key) clears the quarantine and reloads.
    pub fn get(&self, id: &str) -> Result<Arc<DeepCamEngine>> {
        // Fast path (and path lookup) under the lock.
        let (path, quarantine) = match self.entries.lock().expect("registry lock").get(id) {
            None => return Err(ServeError::ModelNotFound { model: id.into() }),
            Some(Entry::Loaded(engine)) => return Ok(Arc::clone(engine)),
            Some(Entry::Cold { path, quarantine }) => (path.clone(), quarantine.clone()),
        };
        // Quarantine check: one cheap stat instead of a full read when
        // the file is still the exact bytes that failed last time.
        let stat = std::fs::metadata(&path)
            .ok()
            .map(|m| (m.len(), m.modified().ok()));
        if let (Some(q), Some((len, mtime))) = (&quarantine, &stat) {
            if q.len == *len && q.mtime == *mtime {
                return Err(ServeError::BadArtifact {
                    model: id.into(),
                    detail: format!("quarantined: {}", q.detail),
                });
            }
        }
        // Slow path: disk read + decode with no locks held.
        let loaded = DeepCamEngine::load(&path);
        let mut entries = self.entries.lock().expect("registry lock");
        let entry = entries.get_mut(id);
        let engine = match loaded {
            Ok(engine) => Arc::new(engine),
            Err(e) => {
                let detail = e.to_string();
                // Negative-cache this exact file state (when it could
                // be keyed) so the broken artifact is not re-parsed on
                // every request.
                if let (Some(Entry::Cold { quarantine, .. }), Some((len, mtime))) = (entry, stat) {
                    *quarantine = Some(Quarantine {
                        len,
                        mtime,
                        detail: detail.clone(),
                    });
                }
                return Err(ServeError::BadArtifact {
                    model: id.into(),
                    detail,
                });
            }
        };
        match entry {
            // A racing loader cached first; share its engine so every
            // caller holds the same instance.
            Some(Entry::Loaded(existing)) => Ok(Arc::clone(existing)),
            Some(entry) => {
                *entry = Entry::Loaded(Arc::clone(&engine));
                Ok(engine)
            }
            None => Ok(engine),
        }
    }

    /// Every known id with its load status, sorted by id.
    pub fn list(&self) -> Vec<ModelInfo> {
        let entries = self.entries.lock().expect("registry lock");
        entries
            .iter()
            .map(|(id, entry)| {
                let (engine, quarantined) = match entry {
                    Entry::Loaded(engine) => (Some(engine), false),
                    Entry::Cold { quarantine, .. } => (None, quarantine.is_some()),
                };
                ModelInfo {
                    id: id.clone(),
                    loaded: engine.is_some(),
                    model_name: engine.map(|eng| eng.model_name().to_string()),
                    dot_layers: engine.map(|eng| eng.dot_layers()),
                    quarantined,
                }
            })
            .collect()
    }

    /// Number of known model ids.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("registry lock").len()
    }

    /// Whether the registry knows no models.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
