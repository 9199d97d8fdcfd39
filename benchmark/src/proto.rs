//! The client side of the `stir::serve` line protocol.
//!
//! One [`Conn`] is one closed-loop client of `stird` over loopback TCP:
//! it sends a request, reads the whole reply, and only then sends the
//! next.

use crate::gen::Row;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A request that gets no complete reply within this long counts as a
/// failed operation.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// What came back for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// `ok ...` after zero or more payload lines.
    Ok { status: String, rows: Vec<String> },
    /// `err ...`: the server refused or failed the request.
    Err(String),
    /// No complete reply in time, or the transport broke. The connection
    /// is out of step afterwards and must not be used again.
    Lost(String),
}

impl Reply {
    pub fn is_ok(&self) -> bool {
        matches!(self, Reply::Ok { .. })
    }

    /// Payload lines parsed as rows of numbers.
    pub fn number_rows(&self) -> Option<Vec<Row>> {
        let Reply::Ok { rows, .. } = self else {
            return None;
        };
        rows.iter()
            .map(|l| l.split('\t').map(|f| f.parse().ok()).collect())
            .collect()
    }
}

pub struct Conn {
    reader: Box<dyn BufRead + Send>,
    writer: Box<dyn Write + Send>,
    /// `+`, `-` and `?` lines sent: what the server's `requests=` counter
    /// (`.stats`) should read, dot commands not being counted there.
    pub data_requests: u64,
}

impl Conn {
    /// Connects with `TCP_NODELAY`, so a request line leaves at once; what
    /// the server does with its replies is the server's business.
    pub fn tcp(addr: SocketAddr, timeout: Duration) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Conn {
            reader: Box::new(BufReader::new(stream.try_clone()?)),
            writer: Box::new(stream),
            data_requests: 0,
        })
    }

    #[cfg(test)]
    pub(crate) fn over(
        reader: impl BufRead + Send + 'static,
        writer: impl Write + Send + 'static,
    ) -> Conn {
        Conn {
            reader: Box::new(reader),
            writer: Box::new(writer),
            data_requests: 0,
        }
    }

    /// Sends `lines` in one write (a pipelined burst when more than one).
    pub fn send(&mut self, lines: &[String]) -> std::io::Result<()> {
        let mut buf = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for l in lines {
            buf.push_str(l);
            buf.push('\n');
            self.data_requests += u64::from(l.starts_with(['+', '-', '?']));
        }
        self.writer.write_all(buf.as_bytes())?;
        self.writer.flush()
    }

    /// Reads one `ok`/`err`-terminated reply.
    pub fn read_reply(&mut self) -> Reply {
        let mut rows = Vec::new();
        loop {
            match self.read_line() {
                Ok(line) if line == "ok" || line.starts_with("ok ") => {
                    return Reply::Ok { status: line, rows }
                }
                Ok(line) if line == "err" || line.starts_with("err ") => return Reply::Err(line),
                Ok(line) => rows.push(line),
                Err(e) => return Reply::Lost(e),
            }
        }
    }

    /// Reads the reply to a command that answers with exactly `n` lines
    /// and no terminator (`.stats` is one line, however long).
    pub fn read_lines(&mut self, n: usize) -> Result<Vec<String>, String> {
        (0..n).map(|_| self.read_line()).collect()
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(line.trim_end_matches(['\r', '\n']).to_owned()),
            Err(e) => Err(e.to_string()),
        }
    }

    /// One closed-loop exchange: the reply and the time from the first
    /// byte sent to the last reply byte read.
    pub fn request(&mut self, line: &str) -> (Reply, Duration) {
        let (mut replies, took) = self.burst(std::slice::from_ref(&line.to_owned()));
        (replies.pop().expect("one reply per line"), took)
    }

    /// Sends all `lines` at once and reads one reply per line.
    pub fn burst(&mut self, lines: &[String]) -> (Vec<Reply>, Duration) {
        let started = Instant::now();
        if let Err(e) = self.send(lines) {
            return (
                vec![Reply::Lost(e.to_string()); lines.len()],
                started.elapsed(),
            );
        }
        let mut replies = Vec::with_capacity(lines.len());
        for _ in lines {
            let reply = self.read_reply();
            let lost = matches!(reply, Reply::Lost(_));
            replies.push(reply);
            if lost {
                let e = replies.last().expect("just pushed").clone();
                replies.resize(lines.len(), e);
                break;
            }
        }
        (replies, started.elapsed())
    }
}

/// The address in `stird: listening on 127.0.0.1:PORT`.
pub fn parse_listening(line: &str) -> Option<SocketAddr> {
    line.split_once("listening on ")?.1.trim().parse().ok()
}

/// The value of `key=` in a `.stats` line.
pub fn stats_field(line: &str, key: &str) -> Option<u64> {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))?
        .parse()
        .ok()
}

/// The whole number under `key` in the flat object `section` of a
/// `.stats json` line.
pub fn stats_json_field(line: &str, section: &str, key: &str) -> Option<u64> {
    let (_, rest) = line.split_once(&format!("\"{section}\":{{"))?;
    let (object, _) = rest.split_once('}')?;
    let (_, value) = object.split_once(&format!("\"{key}\":"))?;
    let digits = value.find(|c: char| !c.is_ascii_digit());
    value[..digits.unwrap_or(value.len())].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn conn_reading(text: &str) -> Conn {
        Conn::over(Cursor::new(text.as_bytes().to_vec()), std::io::sink())
    }

    #[test]
    fn replies_are_framed_by_ok_and_err() {
        let mut c =
            conn_reading("1\t2\n3\t4\nok 2 rows\nerr unknown relation `x`\nok 1 inserted\n");
        let first = c.read_reply();
        assert_eq!(first.number_rows(), Some(vec![vec![1, 2], vec![3, 4]]));
        assert!(matches!(&first, Reply::Ok { status, .. } if status == "ok 2 rows"));
        assert_eq!(
            c.read_reply(),
            Reply::Err("err unknown relation `x`".into())
        );
        assert!(c.read_reply().is_ok());
        assert!(
            matches!(c.read_reply(), Reply::Lost(_)),
            "EOF is a lost reply"
        );
    }

    #[test]
    fn unterminated_stats_output_does_not_swallow_the_next_reply() {
        // `.stats` has no ok/err trailer; `.help` is several such lines.
        let mut c = conn_reading(
            "requests=31 update_tuples=3 query_rows=15705 retracts=3\n\
             commands:\n  +rel(1).  insert\n\
             ok 0 rows\n",
        );
        let stats = c.read_lines(1).expect("one line");
        assert_eq!(stats_field(&stats[0], "requests"), Some(31));
        assert_eq!(stats_field(&stats[0], "retracts"), Some(3));
        assert_eq!(stats_field(&stats[0], "quests"), None);
        assert_eq!(c.read_lines(2).expect("help").len(), 2);
        assert!(c.read_reply().is_ok(), "framing is back in step");
    }

    #[test]
    fn stats_json_sections_are_read_by_name() {
        let line = r#"{"db":{"epoch":0,"resident_bytes":760},"page_cache":{"hits":12,"misses":5,"evictions":3,"resident_bytes":98304},"wal":{"appends":0}}"#;
        assert_eq!(stats_json_field(line, "page_cache", "evictions"), Some(3));
        assert_eq!(
            stats_json_field(line, "page_cache", "resident_bytes"),
            Some(98304)
        );
        assert_eq!(stats_json_field(line, "wal", "evictions"), None);
        assert_eq!(stats_json_field(line, "no_such", "hits"), None);
    }

    #[test]
    fn listening_line_gives_the_chosen_port() {
        let addr = parse_listening("stird: listening on 127.0.0.1:40123").expect("parses");
        assert_eq!(addr.port(), 40123);
        assert!(parse_listening("stird: admin listening on nowhere").is_none());
    }

    #[test]
    fn a_silent_server_times_out_and_counts_as_lost() {
        // Port 0: the kernel picks a free one, nothing is hard-coded.
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("binds");
        let addr = listener.local_addr().expect("bound address");
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accepts");
            // Read the request, never answer; hold the socket open until
            // the client has given up and closed its end.
            let mut sink = Vec::new();
            let _ = std::io::Read::read_to_end(&mut &stream, &mut sink);
        });
        let mut c = Conn::tcp(addr, Duration::from_millis(100)).expect("connects");
        let (reply, took) = c.request("?conn(1, _, _)");
        assert!(matches!(reply, Reply::Lost(_)), "{reply:?}");
        assert!(took >= Duration::from_millis(100));
        drop(c);
        server.join().expect("server thread");
    }

    #[test]
    fn a_burst_is_one_write_and_one_reply_per_line() {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("binds");
        let addr = listener.local_addr().expect("bound address");
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accepts");
            let mut out = stream.try_clone().expect("clones");
            for line in BufReader::new(stream).lines() {
                let line = line.expect("reads");
                writeln!(out, "ok {}", line.len()).expect("writes");
            }
        });
        let mut c = Conn::tcp(addr, REQUEST_TIMEOUT).expect("connects");
        let lines: Vec<String> = (0..16).map(|i| format!("+r({i}).")).collect();
        let (replies, _) = c.burst(&lines);
        assert_eq!(replies.len(), 16);
        assert!(replies.iter().all(Reply::is_ok));
        c.send(&[".stats".to_owned()]).expect("sends");
        assert!(c.read_reply().is_ok());
        assert_eq!(c.data_requests, 16, "dot commands are not data requests");
        drop(c);
        server.join().expect("server thread");
    }
}
