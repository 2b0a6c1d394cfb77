(* crisp_simd: the persistent simulation-farm daemon.

   The default command listens on a Unix-domain socket for crisp_sim
   clients, decomposes their grid requests into canonical cells, dedups
   identical cells across all connected clients, shards them over a
   work-stealing domain pool under supervision, and (with --journal-dir)
   checkpoints every completed cell so a killed daemon restarts warm.
   Connections live under a hostile-traffic lifecycle: per-frame I/O
   deadlines, idle reaping, connection/request/queue budgets with
   structured Overloaded sheds, and graceful SIGTERM drain.

   The `chaos' subcommand is the wire-level self-check: it runs a
   retrying client through a seeded fault-injecting proxy and asserts
   the rendered figures are byte-identical to a clean run with zero
   cells recomputed.

   Exit codes (daemon): 0 clean shutdown (signal or client `shutdown'
   request); 2 startup failure (socket in use, bad arguments).
   Exit codes (chaos): 0 converged byte-identically; 1 disruption fully
   reported; 2 silent divergence, vacuous plan, or internal error. *)

open Cmdliner

let default_socket = Filename.concat (Filename.get_temp_dir_name ()) "crisp_simd.sock"

let socket_arg =
  let doc =
    "Unix-domain socket to listen on.  A stale file at this path is \
     unlinked; do not point two live daemons at the same path."
  in
  Arg.(value & opt string default_socket & info [ "socket" ] ~docv:"PATH" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the shared simulation pool (0 = one per \
     recommended core; 1 = run cells inline on the client threads)."
  in
  Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let journal_dir_arg =
  let doc =
    "Persist the farm's state under $(docv): a `cells' journal of every \
     completed cell value and a `server' journal of daemon counters.  A \
     restarted daemon serves journalled cells without recomputing them.  \
     Omitted = fully in-memory."
  in
  Arg.(value & opt (some string) None & info [ "journal-dir" ] ~docv:"DIR" ~doc)

let deadline_arg =
  let doc = "Per-cell wall-clock deadline in seconds; over-deadline cells degrade." in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECS" ~doc)

let retries_arg =
  let doc = "Retries per crashed cell (deterministic seeded backoff)." in
  Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Seed for backoff jitter." in
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc)

let verbose_arg =
  let doc = "Log every connection, spawn, journal hit and degradation to stderr." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

(* ----- connection-lifecycle knobs ----- *)

let io_timeout_arg =
  let doc =
    "Per-frame read/write deadline in seconds: a frame that does not \
     transfer completely within $(docv) evicts its connection (the \
     slowloris and dead-reader defence).  0 waits forever."
  in
  Arg.(value & opt float 30. & info [ "io-timeout" ] ~docv:"SECS" ~doc)

let idle_timeout_arg =
  let doc =
    "Reap a connection with no request in flight for $(docv) seconds.  \
     0 keeps idle connections forever."
  in
  Arg.(value & opt float 600. & info [ "idle-timeout" ] ~docv:"SECS" ~doc)

let max_conns_arg =
  let doc =
    "Concurrent connection cap; excess connections are shed with a \
     structured Overloaded frame at accept time."
  in
  Arg.(value & opt int 64 & info [ "max-conns" ] ~docv:"N" ~doc)

let max_requests_arg =
  let doc =
    "Requests served per connection before it is recycled with an \
     Overloaded (retry immediately) frame."
  in
  Arg.(value & opt int 10_000 & info [ "max-requests" ] ~docv:"N" ~doc)

let max_queued_arg =
  let doc =
    "Shed new grid requests while the simulation pool's queue is deeper \
     than $(docv).  0 admits regardless of queue depth."
  in
  Arg.(value & opt int 0 & info [ "max-queued" ] ~docv:"N" ~doc)

let retry_after_ms_arg =
  let doc = "Backoff hint (milliseconds) carried by Overloaded shed frames." in
  Arg.(value & opt int 250 & info [ "retry-after-ms" ] ~docv:"MS" ~doc)

let sndbuf_arg =
  let doc =
    "SO_SNDBUF for accepted sockets, bytes — bounds per-connection kernel \
     memory and makes dead-reader eviction prompt.  0 keeps the kernel \
     default."
  in
  Arg.(value & opt int 0 & info [ "sndbuf" ] ~docv:"BYTES" ~doc)

let positive v = if v <= 0. then None else Some v
let positive_int v = if v <= 0 then None else Some v

let limits_of io_timeout idle_timeout max_conns max_requests max_queued
    retry_after_ms sndbuf =
  { Farm_server.max_connections = max_conns;
    max_requests_per_conn = max_requests;
    max_queued = positive_int max_queued;
    io_timeout = positive io_timeout;
    idle_timeout = positive idle_timeout;
    sndbuf = positive_int sndbuf;
    retry_after_ms }

let daemon socket jobs journal_dir deadline retries seed verbose io_timeout
    idle_timeout max_conns max_requests max_queued retry_after_ms sndbuf =
  let pool = Exec.Pool.of_jobs jobs in
  let policy =
    { Resil.Supervise.default_policy with Resil.Supervise.deadline; retries; seed }
  in
  let limits =
    limits_of io_timeout idle_timeout max_conns max_requests max_queued
      retry_after_ms sndbuf
  in
  let server =
    Farm_server.create
      { Farm_server.socket; pool; policy; journal_dir; verbose; limits }
  in
  (* SIGTERM/SIGINT start a graceful drain: the accept loop closes,
     in-flight grids finish streaming, idle connections get a Draining
     frame, client threads are joined, the socket file is removed and
     the clean shutdown is journalled. *)
  let request_stop _ = Farm_server.stop server in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  (match Farm_server.run server with
  | () -> ()
  | exception Unix.Unix_error (e, fn, arg) ->
    Printf.eprintf "crisp_simd: cannot serve on %s: %s (%s %s)\n" socket
      (Unix.error_message e) fn arg;
    exit 2);
  Exec.Pool.shutdown pool

(* ------------------------------------------------------------------ *)
(* chaos: the wire-level self-check.  One in-process daemon, a clean
   reference pass connected directly, then a retrying client run through
   a Chaos_proxy armed with a seeded (or explicit) wire-fault plan.  The
   verdict mirrors crisp_sim's grid-chaos contract:

     exit 0  figures byte-identical to the clean pass, zero cells
             recomputed (exactly-once across every retry), and at least
             one wire fault actually fired
     exit 1  the faults disrupted the run and every disruption was
             explicitly reported (retries exhausted, degraded cells)
     exit 2  SILENT DIVERGENCE (output changed, nothing reported), a
             vacuous plan (nothing fired), or an internal error *)

let chaos_tmpdir () =
  (* Short paths: two sockets live here and sun_path is ~107 bytes. *)
  let rec go i =
    let p =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "cschaos%d.%d" (Unix.getpid ()) i)
    in
    match Unix.mkdir p 0o700 with
    | () -> p
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go (i + 1)
  in
  go 0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let chaos_fault_arg =
  let doc =
    "Wire-fault spec [up:|down:]ACTION[#N|+N] where ACTION is \
     delay[=SECS], stall[=SECS], truncate, corrupt-len or drop; #N fires \
     on exactly the Nth frame of that direction (counted globally across \
     reconnects), +N from the Nth onward.  Repeatable.  Omitted = a \
     seeded random plan."
  in
  Arg.(value & opt_all string [] & info [ "fault" ] ~docv:"SPEC" ~doc)

let chaos_grids_arg =
  let doc = "Figure grids to converge on (default: fig8)." in
  Arg.(value & pos_all string [] & info [] ~docv:"GRID" ~doc)

let chaos_instrs_arg =
  let doc = "Dynamic micro-ops per evaluation run (kept small: chaos runs every grid twice)." in
  Arg.(value & opt int 4000 & info [ "n"; "instrs" ] ~docv:"N" ~doc)

let chaos_train_arg =
  let doc = "Dynamic micro-ops for the profiling (training) run." in
  Arg.(value & opt int 3000 & info [ "train-instrs" ] ~docv:"N" ~doc)

let chaos_attempts_arg =
  let doc = "Client attempts per grid before giving up." in
  Arg.(value & opt int 8 & info [ "attempts" ] ~docv:"N" ~doc)

let chaos seed fault_specs grids instrs train_instrs jobs attempts verbose =
  let specs =
    let tags = if grids = [] then [ "fig8" ] else grids in
    List.map
      (fun tag ->
        match Grid.find tag with
        | Some spec -> spec
        | None ->
          Printf.eprintf "crisp_simd: unknown grid %S (known: %s)\n" tag
            (String.concat ", "
               (List.map (fun (s : Grid.spec) -> s.Grid.tag) Grid.catalog));
          exit 2)
      tags
  in
  let plan =
    match fault_specs with
    | [] -> Chaos_proxy.random ~seed
    | specs ->
      List.map
        (fun s ->
          match Chaos_proxy.parse_spec s with
          | Ok tr -> tr
          | Error msg ->
            Printf.eprintf "crisp_simd: %s\n" msg;
            exit 2)
        specs
  in
  Printf.printf "farm-chaos: seed %d, %d grid(s), plan:\n" seed (List.length specs);
  List.iter
    (fun tr -> Printf.printf "  %s\n" (Chaos_proxy.trigger_to_string tr))
    plan;
  let dir = chaos_tmpdir () in
  let daemon_socket = Filename.concat dir "d.sock" in
  let proxy_socket = Filename.concat dir "p.sock" in
  let pool = Exec.Pool.of_jobs jobs in
  let srv =
    Farm_server.create
      { Farm_server.socket = daemon_socket;
        pool;
        policy = Resil.Supervise.default_policy;
        journal_dir = Some (Filename.concat dir "journal");
        verbose;
        limits = Farm_server.default_limits }
  in
  let srv_thread = Thread.create Farm_server.run srv in
  let proxy = ref None in
  let cleanup () =
    (match !proxy with Some p -> Chaos_proxy.stop p | None -> ());
    Farm_server.stop srv;
    Thread.join srv_thread;
    Exec.Pool.shutdown pool;
    rm_rf dir
  in
  let finish code =
    cleanup ();
    exit code
  in
  let connect_ready socket =
    (* The in-process daemon binds asynchronously; wait for it. *)
    let rec go n =
      match Farm_client.connect ~connect_timeout:1. ~socket () with
      | c -> Farm_client.close c
      | exception Farm_client.Disconnected _ when n > 0 ->
        Thread.delay 0.02;
        go (n - 1)
    in
    go 250
  in
  try
    connect_ready daemon_socket;
    (* Pass 1: clean reference, connected directly to the daemon. *)
    let clean =
      Resil.Capture.stdout (fun () ->
          List.iter
            (fun (spec : Grid.spec) ->
              let c = Farm_client.connect ~socket:daemon_socket () in
              Fun.protect
                ~finally:(fun () -> Farm_client.close c)
                (fun () ->
                  let r =
                    Farm_client.run_grid c ~spec ~eval_instrs:instrs
                      ~train_instrs ()
                  in
                  Grid.render spec r.Farm_client.rows))
            specs)
    in
    let misses_before =
      (Farm_server.stats srv).Farm_protocol.memo.Exec.Memo.misses
    in
    (* Pass 2: the same grids through the fault-injecting proxy, with a
       retrying client.  Every cell is already memoized (and journalled)
       server-side, so convergence must recompute nothing. *)
    let p = Chaos_proxy.start ~listen:proxy_socket ~upstream:daemon_socket ~plan in
    proxy := Some p;
    let retry =
      { Farm_client.default_retry with
        Farm_client.attempts;
        seed;
        connect_timeout = 5. }
    in
    let total_attempts = ref 0 in
    let outcome =
      match
        Resil.Capture.stdout (fun () ->
            List.iter
              (fun (spec : Grid.spec) ->
                let r, used =
                  Farm_client.run_grid_retrying ~socket:proxy_socket ~retry
                    ~spec ~eval_instrs:instrs ~train_instrs ()
                in
                total_attempts := !total_attempts + used;
                Grid.render spec r.Farm_client.rows)
              specs)
      with
      | chaotic -> Ok chaotic
      | exception Farm_client.Farm_error msg -> Error msg
    in
    let fired = Chaos_proxy.fired p in
    Printf.printf "farm-chaos: %d wire fault(s) fired:\n" (List.length fired);
    List.iter
      (fun (dir, n, action) ->
        Printf.printf "  %s frame %d: %s\n"
          (Chaos_proxy.direction_to_string dir)
          n
          (Chaos_proxy.action_to_string action))
      fired;
    let misses_after =
      (Farm_server.stats srv).Farm_protocol.memo.Exec.Memo.misses
    in
    let recomputed = misses_after - misses_before in
    match outcome with
    | Error msg ->
      (* The client gave up, loudly: a reported disruption, not a lie. *)
      Printf.printf
        "farm-chaos: client gave up and said so: %s\n\
         farm-chaos: faults disrupted the run and the disruption was \
         reported (exit 1)\n"
        msg;
      finish 1
    | Ok chaotic ->
      Printf.printf
        "farm-chaos: converged in %d attempt(s) across %d grid(s), %d \
         cell(s) recomputed\n"
        !total_attempts (List.length specs) recomputed;
      if chaotic <> clean then begin
        Printf.printf
          "farm-chaos: SILENT DIVERGENCE — figures differ from the clean \
           pass with no reported failure (exit 2)\n";
        print_string "--- clean ---\n";
        print_string clean;
        print_string "--- chaotic ---\n";
        print_string chaotic;
        finish 2
      end
      else if recomputed <> 0 then begin
        Printf.printf
          "farm-chaos: EXACTLY-ONCE VIOLATION — %d cell(s) recomputed \
           during retries (exit 2)\n"
          recomputed;
        finish 2
      end
      else if fired = [] then begin
        Printf.printf
          "farm-chaos: VACUOUS RUN — no wire fault fired, nothing was \
           verified (exit 2)\n";
        finish 2
      end
      else begin
        Printf.printf
          "farm-chaos: clean — figures byte-identical through every wire \
           fault, zero recomputation (exit 0)\n";
        finish 0
      end
  with exn ->
    Printf.eprintf "crisp_simd: chaos internal error: %s\n"
      (Printexc.to_string exn);
    finish 2

(* ------------------------------------------------------------------ *)

let daemon_term =
  Term.(
    const daemon $ socket_arg $ jobs_arg $ journal_dir_arg $ deadline_arg
    $ retries_arg $ seed_arg $ verbose_arg $ io_timeout_arg $ idle_timeout_arg
    $ max_conns_arg $ max_requests_arg $ max_queued_arg $ retry_after_ms_arg
    $ sndbuf_arg)

let chaos_cmd =
  let info =
    Cmd.info "chaos"
      ~doc:
        "Wire-level chaos self-check: run a retrying client through a \
         seeded fault-injecting proxy (delays, stalls, torn frames, \
         corrupt length prefixes, dropped connections) and assert the \
         rendered figures are byte-identical to a clean run with zero \
         cells recomputed."
  in
  Cmd.v info
    Term.(
      const chaos $ seed_arg $ chaos_fault_arg $ chaos_grids_arg
      $ chaos_instrs_arg $ chaos_train_arg $ jobs_arg $ chaos_attempts_arg
      $ verbose_arg)

let () =
  let info =
    Cmd.info "crisp_simd" ~version:"1.0.0"
      ~doc:
        "Simulation-farm daemon: batches, shards, dedups and journals \
         CRISP grid work for concurrent crisp_sim clients."
  in
  (* The daemon stays the default command, so `crisp_simd --socket ...`
     keeps meaning what it always did. *)
  let group = Cmd.group ~default:daemon_term info [ chaos_cmd ] in
  match Cmd.eval ~catch:false ~term_err:2 group with
  | code -> exit code
  | exception exn ->
    Printf.eprintf "crisp_simd: internal error: %s\n" (Printexc.to_string exn);
    exit 2
