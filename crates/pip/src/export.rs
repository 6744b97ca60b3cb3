//! Named export/import — PiP's `pip_named_export` / `pip_named_import`.
//!
//! Tasks publish objects under a name; peers import them. Because the
//! address space is shared, an import is just a pointer handoff (here: an
//! `Arc` clone), never a copy. Imports can wait for a not-yet-published
//! name, cooperatively yielding so the exporter gets scheduled.

use parking_lot::Mutex;
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

type Payload = Arc<dyn Any + Send + Sync>;

/// The root-wide export table.
#[derive(Default)]
pub struct ExportTable {
    map: Mutex<HashMap<String, Payload>>,
}

impl ExportTable {
    /// An empty table.
    pub fn new() -> ExportTable {
        ExportTable::default()
    }

    /// Publish `value` under `name`. Re-exporting a name replaces it.
    pub fn export<T: Any + Send + Sync>(&self, name: &str, value: Arc<T>) {
        self.map.lock().insert(name.to_string(), value);
    }

    /// Import a published object; `None` if the name is unknown or of a
    /// different type.
    pub fn import<T: Any + Send + Sync>(&self, name: &str) -> Option<Arc<T>> {
        let payload = self.map.lock().get(name).cloned()?;
        payload.downcast::<T>().ok()
    }

    /// Import, cooperatively waiting up to `timeout` for the exporter.
    pub fn import_wait<T: Any + Send + Sync>(
        &self,
        name: &str,
        timeout: Duration,
    ) -> Option<Arc<T>> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(v) = self.import::<T>(name) {
                return Some(v);
            }
            if Instant::now() >= deadline {
                return None;
            }
            // Let the exporting ULP run; fall back to the OS scheduler when
            // we are not a ULT.
            ulp_core::stall();
        }
    }

    /// Number of currently exported names.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// Whether nothing has been exported (or everything was replaced away).
    pub fn is_empty(&self) -> bool {
        self.map.lock().is_empty()
    }
}

impl std::fmt::Debug for ExportTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExportTable")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_import_roundtrip() {
        let t = ExportTable::new();
        t.export("config", Arc::new(vec![1u32, 2, 3]));
        let v: Arc<Vec<u32>> = t.import("config").unwrap();
        assert_eq!(*v, vec![1, 2, 3]);
    }

    #[test]
    fn import_is_pointer_sharing_not_copy() {
        let t = ExportTable::new();
        let original = Arc::new(Mutex::new(0u32));
        t.export("cell", original.clone());
        let imported: Arc<Mutex<u32>> = t.import("cell").unwrap();
        *imported.lock() = 7;
        assert_eq!(*original.lock(), 7, "same object, not a copy");
    }

    #[test]
    fn wrong_type_or_name_is_none() {
        let t = ExportTable::new();
        t.export("n", Arc::new(1u8));
        assert!(t.import::<u16>("n").is_none());
        assert!(t.import::<u8>("missing").is_none());
    }

    #[test]
    fn import_wait_times_out() {
        let t = ExportTable::new();
        let start = Instant::now();
        let got: Option<Arc<u8>> = t.import_wait("never", Duration::from_millis(20));
        assert!(got.is_none());
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn import_wait_sees_late_export() {
        let t = Arc::new(ExportTable::new());
        let t2 = t.clone();
        let waiter = std::thread::spawn(move || {
            t2.import_wait::<u64>("late", Duration::from_secs(5))
                .map(|v| *v)
        });
        std::thread::sleep(Duration::from_millis(20));
        t.export("late", Arc::new(99u64));
        assert_eq!(waiter.join().unwrap(), Some(99));
    }
}
