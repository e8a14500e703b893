//! Process handling shared by the integration tests that spawn
//! `dynslice serve`.

use std::ops::{Deref, DerefMut};
use std::process::{Child, Command, Output};
use std::time::{Duration, Instant};

/// A spawned `dynslice serve`. Dropping it kills and reaps the process,
/// so a test that panics before its orderly shutdown leaves no server
/// running.
pub struct ServerProcess(Option<Child>);

impl ServerProcess {
    /// Waits up to `deadline` for the server to exit on its own and
    /// collects its output. Past the deadline it panics, and the drop
    /// kills the server.
    pub fn wait_for_exit(mut self, deadline: Duration) -> Output {
        let start = Instant::now();
        loop {
            if self.try_wait().unwrap().is_some() {
                return self.0.take().expect("child present").wait_with_output().unwrap();
            }
            assert!(start.elapsed() <= deadline, "server did not exit within {deadline:?}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Deref for ServerProcess {
    type Target = Child;

    fn deref(&self) -> &Child {
        self.0.as_ref().expect("child present until exit")
    }
}

impl DerefMut for ServerProcess {
    fn deref_mut(&mut self) -> &mut Child {
        self.0.as_mut().expect("child present until exit")
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Spawns a command as a [`ServerProcess`].
pub trait SpawnServer {
    /// [`Command::spawn`], with the child guarded.
    fn spawn_server(&mut self) -> ServerProcess;
}

impl SpawnServer for Command {
    fn spawn_server(&mut self) -> ServerProcess {
        ServerProcess(Some(self.spawn().expect("spawn dynslice serve")))
    }
}
