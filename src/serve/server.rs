//! The TCP front of the serve engine: accept loop, one thread per
//! connection, one length-prefixed JSON frame per request/response.
//!
//! A connection may pipeline any number of requests; each is answered in
//! order on the same socket. Malformed frames get a `source_error`
//! response (stage `"protocol"`) rather than a dropped connection, so a
//! misbehaving client cannot distinguish its own errors from transport
//! failures.

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use super::engine::Engine;
use super::proto::{read_frame, write_frame, Outcome, Request, Response, Served};

/// A listening analysis server.
pub struct Server {
    engine: Arc<Engine>,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str, engine: Arc<Engine>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server { engine, listener, shutdown: Arc::new(AtomicBool::new(false)) })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that makes [`Server::run`] return after the next accepted
    /// connection is handled.
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Writes the bound port to `path` (the CI smoke polls this file to
    /// know the server is up).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_port_file(&self, path: &str) -> std::io::Result<()> {
        let port = self.local_addr()?.port();
        let tmp = format!("{path}.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            writeln!(f, "{port}")?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Accepts connections until shut down, spawning one handler thread
    /// per connection.
    pub fn run(self) {
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let engine = Arc::clone(&self.engine);
            std::thread::spawn(move || handle_connection(stream, &engine));
        }
    }
}

fn handle_connection(mut stream: TcpStream, engine: &Engine) {
    let _ = stream.set_nodelay(true);
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(Some(f)) => f,
            Ok(None) => return, // clean EOF
            Err(_) => return,   // transport failure: nothing sane to answer on
        };
        let decoded =
            std::str::from_utf8(&frame).map_err(|e| e.to_string()).and_then(Request::from_json);
        let response = match decoded {
            Ok(req) => engine.submit_wire(&req),
            Err(message) => Response {
                id: 0,
                served: Served::Cold,
                outcome: Arc::new(Outcome::SourceError { stage: "protocol".into(), message }),
            }
            .to_json(),
        };
        if write_frame(&mut stream, response.as_bytes()).is_err() {
            return;
        }
    }
}

/// A blocking client for one server connection.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// The underlying stream, for callers that want the raw frame.
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// Sends one request and waits for its response.
    ///
    /// # Errors
    ///
    /// `Err(message)` on transport or protocol-decode failure.
    pub fn call(&mut self, req: &Request) -> Result<super::proto::Envelope, String> {
        write_frame(&mut self.stream, req.to_json().as_bytes()).map_err(|e| e.to_string())?;
        let frame = read_frame(&mut self.stream)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "server closed the connection".to_string())?;
        let text = std::str::from_utf8(&frame).map_err(|e| e.to_string())?;
        super::proto::Envelope::from_json(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::engine::EngineConfig;
    use crate::serve::json::Json;
    use crate::serve::loadgen::{run_load, LoadOptions, PIPE_SCENARIO, WARM_SOURCE};
    use crate::serve::proto::RequestKind;

    fn spawn_server(config: EngineConfig) -> String {
        let engine = Arc::new(Engine::new(config));
        let server = Server::bind("127.0.0.1:0", engine).expect("bind ephemeral");
        let addr = server.local_addr().expect("addr").to_string();
        std::thread::spawn(move || server.run());
        addr
    }

    #[test]
    fn requests_round_trip_over_tcp() {
        let addr = spawn_server(EngineConfig::default());
        let mut client = Client::connect(&addr).expect("connect");
        let mut req = Request::new(5, RequestKind::Pipeline, WARM_SOURCE);
        req.scenario = Some(PIPE_SCENARIO.into());
        let cold = client.call(&req).expect("first call");
        assert_eq!((cold.id, cold.served.as_str(), cold.outcome.as_str()), (5, "cold", "pipeline"));
        // pipelined on the same connection: now a cache hit
        req.id = 6;
        let warm = client.call(&req).expect("second call");
        assert_eq!((warm.id, warm.served.as_str()), (6, "hit"));
        // malformed frames answer instead of dropping the connection
        write_frame(client.stream_mut(), b"{not json").expect("send garbage");
        let frame = read_frame(client.stream_mut()).expect("read").expect("frame");
        let env =
            super::super::proto::Envelope::from_json(std::str::from_utf8(&frame).expect("utf8"))
                .expect("decode");
        assert_eq!(env.outcome, "source_error");
    }

    #[test]
    fn a_deeply_nested_frame_is_answered_and_the_connection_keeps_serving() {
        let addr = spawn_server(EngineConfig::default());
        let mut client = Client::connect(&addr).expect("connect");
        // 20 KB that would recurse 10 000 levels deep on the connection
        // thread's stack
        let hostile = format!("{}{}", "[".repeat(10_000), "]".repeat(10_000));
        write_frame(client.stream_mut(), hostile.as_bytes()).expect("send the hostile frame");
        let frame = read_frame(client.stream_mut()).expect("read").expect("an answer, not EOF");
        let reply = Json::parse(std::str::from_utf8(&frame).expect("utf8")).expect("decode");
        assert_eq!(reply.get("outcome").and_then(Json::as_str), Some("source_error"));
        let stage = reply.get("payload").and_then(|p| p.get("stage")).and_then(Json::as_str);
        assert_eq!(stage, Some("protocol"));
        let mut req = Request::new(8, RequestKind::Pipeline, WARM_SOURCE);
        req.scenario = Some(PIPE_SCENARIO.into());
        let env = client.call(&req).expect("served after the hostile frame");
        assert_eq!((env.id, env.served.as_str(), env.outcome.as_str()), (8, "cold", "pipeline"));
    }

    #[test]
    fn deep_and_long_sources_are_answered_and_the_connection_keeps_serving() {
        let addr = spawn_server(EngineConfig::default());
        let mut client = Client::connect(&addr).expect("connect");
        let program =
            |rhs: String| format!("process P {{ input a: int; output x: int; x := {rhs}; }}");
        // each would overflow a connection thread's stack in a pass that
        // recursed once per level without a bound
        let nested = program(format!("{}a{}", "(".repeat(1000), ")".repeat(1000)));
        let flat = program(vec!["a"; 5000].join(" + "));
        for (id, kind, source) in [(1, RequestKind::Parse, nested), (2, RequestKind::Lint, flat)] {
            let env = client.call(&Request::new(id, kind, source)).expect("an answer, not EOF");
            assert_eq!((env.id, env.outcome.as_str()), (id, "source_error"));
        }
        let mut req = Request::new(3, RequestKind::Pipeline, WARM_SOURCE);
        req.scenario = Some(PIPE_SCENARIO.into());
        let env = client.call(&req).expect("served after the hostile sources");
        assert_eq!((env.id, env.outcome.as_str()), (3, "pipeline"));
    }

    #[test]
    fn load_generator_reports_what_the_server_did() {
        let mut config = EngineConfig::default();
        config.budget.max_instants = 64;
        let addr = spawn_server(config);
        let opts = LoadOptions {
            addr,
            requests: 24,
            concurrency: 4,
            warm_percent: 50,
            adversarial: 1,
            adversarial_instants: 128,
        };
        let report = run_load(&opts).expect("load run");
        assert_eq!(report.sent, 24);
        assert_eq!(report.transport_errors, 0);
        assert_eq!(report.budget_exceeded, 1, "exactly the adversarial request breaches");
        assert_eq!(report.source_errors, 0);
        assert_eq!(report.ok, 23);
        assert!(report.served_hit > 0, "warm repeats must hit the cache");
        assert!(report.p99_us >= report.p50_us);
    }
}
