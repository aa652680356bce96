//! Broken-pipe-tolerant CLI output.
//!
//! `println!` panics when stdout is a closed pipe (`procmine mine … |
//! head` used to abort with a backtrace once `head` exited). The
//! [`out!`]/[`outln!`] macros route every stdout write through
//! [`stdout_write`], which exits with the conventional SIGPIPE status
//! instead of panicking; [`errln!`] writes diagnostics to stderr on a
//! best-effort basis (a closed stderr silently drops them — there is
//! nowhere left to complain to).
//!
//! Errors on named files go through [`FileError`], which names the path
//! and keeps the I/O error beneath it for [`error_is_broken_pipe`].

use std::error::Error;
use std::fmt;
use std::io::Write;

/// Exit status for a closed stdout: `128 + SIGPIPE`, the status a
/// shell reports for a process actually killed by SIGPIPE.
pub const SIGPIPE_EXIT: u8 = 141;

/// True if any error in the source chain is an I/O broken pipe.
/// `main` uses this to exit quietly (status [`SIGPIPE_EXIT`]) instead
/// of printing an error banner for what is normal pipeline teardown.
pub fn error_is_broken_pipe(e: &(dyn std::error::Error + 'static)) -> bool {
    let mut cur: Option<&(dyn std::error::Error + 'static)> = Some(e);
    while let Some(err) = cur {
        if let Some(io) = err.downcast_ref::<std::io::Error>() {
            if io.kind() == std::io::ErrorKind::BrokenPipe {
                return true;
            }
        }
        cur = err.source();
    }
    false
}

fn handle_stdout_failure(e: std::io::Error) -> ! {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        std::process::exit(i32::from(SIGPIPE_EXIT));
    }
    let _ = writeln!(std::io::stderr(), "procmine: cannot write to stdout: {e}");
    std::process::exit(1);
}

/// Writes to stdout; a broken pipe exits with [`SIGPIPE_EXIT`], any
/// other write failure reports to stderr and exits 1.
pub fn stdout_write(args: std::fmt::Arguments<'_>) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_fmt(args) {
        handle_stdout_failure(e);
    }
}

/// [`stdout_write`] plus a trailing newline.
pub fn stdout_writeln(args: std::fmt::Arguments<'_>) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_fmt(args).and_then(|()| out.write_all(b"\n")) {
        handle_stdout_failure(e);
    }
}

/// Best-effort stderr line; write failures are ignored.
pub fn stderr_writeln(args: std::fmt::Arguments<'_>) {
    let mut err = std::io::stderr().lock();
    let _ = err.write_fmt(args).and_then(|()| err.write_all(b"\n"));
}

/// `print!` that tolerates a closed stdout.
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::output::stdout_write(format_args!($($arg)*))
    };
}

/// `println!` that tolerates a closed stdout.
macro_rules! outln {
    () => {
        $crate::output::stdout_writeln(format_args!(""))
    };
    ($($arg:tt)*) => {
        $crate::output::stdout_writeln(format_args!($($arg)*))
    };
}

/// `eprintln!` that tolerates a closed stderr.
macro_rules! errln {
    () => {
        $crate::output::stderr_writeln(format_args!(""))
    };
    ($($arg:tt)*) => {
        $crate::output::stderr_writeln(format_args!($($arg)*))
    };
}

pub(crate) use {errln, out, outln};

/// An error on a named file: the message leads with the path, and the
/// underlying error stays the [`source`](Error::source), so a closed
/// FIFO still exits quietly through [`error_is_broken_pipe`].
#[derive(Debug)]
pub struct FileError {
    path: String,
    source: Box<dyn Error + Send + Sync>,
}

impl fmt::Display for FileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.source)
    }
}

impl Error for FileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&*self.source)
    }
}

/// Names `path` in an error from that file: `.map_err(file_error(path))`.
pub fn file_error<E: Into<Box<dyn Error + Send + Sync>>>(
    path: &str,
) -> impl FnOnce(E) -> FileError + '_ {
    move |e| FileError {
        path: path.to_string(),
        source: e.into(),
    }
}

/// Reads `path` into a string.
pub fn read_to_string(path: &str) -> Result<String, FileError> {
    std::fs::read_to_string(path).map_err(file_error(path))
}

/// Writes `contents` to `path` and notes the file on stderr.
pub fn write_file(path: &str, contents: impl AsRef<[u8]>) -> Result<(), FileError> {
    std::fs::write(path, contents).map_err(file_error(path))?;
    errln!("wrote {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_errors_name_the_path_and_keep_the_io_error_as_source() {
        let closed = std::io::Error::from(std::io::ErrorKind::BrokenPipe);
        let e: Box<dyn Error> = file_error("out.fifo")(closed).into();
        assert!(e.to_string().starts_with("out.fifo: "), "{e}");
        assert!(error_is_broken_pipe(e.as_ref()));
    }
}
