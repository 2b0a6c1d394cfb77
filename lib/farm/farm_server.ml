module P = Farm_protocol

type limits = {
  max_connections : int;
  max_requests_per_conn : int;
  max_queued : int option;
  io_timeout : float option;
  idle_timeout : float option;
  sndbuf : int option;
  retry_after_ms : int;
}

let default_limits =
  { max_connections = 64;
    max_requests_per_conn = 10_000;
    max_queued = None;
    io_timeout = Some 30.;
    idle_timeout = Some 600.;
    sndbuf = None;
    retry_after_ms = 250 }

type config = {
  socket : string;
  pool : Exec.Pool.t;
  policy : Resil.Supervise.policy;
  journal_dir : string option;
  verbose : bool;
  limits : limits;
}

type t = {
  cfg : config;
  cells : Cell_store.t;
  server_journal : Resil.Journal.t option;
  (* Admission-lint verdicts per workload name.  Catalog programs are
     immutable for the life of the daemon, so a verdict never expires;
     the mutex covers concurrent client threads. *)
  lint_cache : (string, string list) Hashtbl.t;
  lint_mutex : Mutex.t;
  requests_served : int Atomic.t;
  sampled_cells : int Atomic.t;
  conns : int Atomic.t;
  stop_flag : bool Atomic.t;
  (* Atomic, not mutable: {!stop} reads it from arbitrary threads (and
     signal handlers) while {!run} publishes it.  stop flips [stop_flag]
     first and reads the fd second; run stores the fd first and re-checks
     the flag second — under either interleaving the listening socket is
     shut down and never leaked. *)
  listen_fd : Unix.file_descr option Atomic.t;
}

let log t fmt =
  Printf.ksprintf
    (fun s -> if t.cfg.verbose then Printf.eprintf "crisp_simd: %s\n%!" s)
    fmt

(* The cell-journal signature pins only the payload format: cell keys
   already carry the instruction budgets, so one journal serves requests
   of any size. *)
let cells_signature = "crisp-farm cells v1 " ^ Cell_store.payload_format
let server_signature = "crisp-farm server v1"

let create cfg =
  let cells_journal, server_journal =
    match cfg.journal_dir with
    | None -> (None, None)
    | Some dir ->
      ( Some (Resil.Journal.in_dir ~dir ~name:"cells" ~signature:cells_signature),
        Some (Resil.Journal.in_dir ~dir ~name:"server" ~signature:server_signature)
      )
  in
  let served =
    match server_journal with
    | None -> 0
    | Some j -> (
      match Resil.Journal.find j "requests_served" with
      | Some payload -> (
        match int_of_string_opt payload with
        | Some n -> n
        | None ->
          (* A validated journal line whose payload is not an integer
             means a foreign or corrupt writer.  Quarantine loudly and
             start the counter from zero rather than trust it. *)
          Printf.eprintf
            "crisp_simd: warning: server journal requests_served payload %S \
             is not an integer; quarantining the entry\n\
             %!"
            payload;
          Resil.Log.record
            (Resil.Log.Quarantined
               { ident = "server/requests_served";
                 reason =
                   Printf.sprintf "journalled payload %S is not an integer"
                     payload });
          0)
      | None -> 0)
  in
  { cfg;
    cells = Cell_store.create ?journal:cells_journal cfg.pool cfg.policy;
    server_journal;
    lint_cache = Hashtbl.create 32;
    lint_mutex = Mutex.create ();
    requests_served = Atomic.make served;
    sampled_cells = Atomic.make 0;
    conns = Atomic.make 0;
    stop_flag = Atomic.make false;
    listen_fd = Atomic.make None }

let stats t =
  { P.memo = Cell_store.memo_stats t.cells;
    pool = Exec.Pool.stats t.cfg.pool;
    journal_cells = Cell_store.journal_cells t.cells;
    requests_served = Atomic.get t.requests_served;
    sampled_cells = Atomic.get t.sampled_cells }

(* ----- cells ----- *)

let cell_key ?sample ~eval_instrs ~train_instrs ~metric ~name (c : Grid.column) =
  Printf.sprintf "cell/%s/%s/%s/%s/%s/e%d/t%d%s" name
    (Grid.metric_to_string metric)
    c.variant
    (match c.threshold with
    | None -> "tdef"
    | Some th -> Printf.sprintf "t%h" th)
    (match c.window with
    | None -> "wdef"
    | Some (rs, rob) -> Printf.sprintf "w%dx%d" rs rob)
    eval_instrs train_instrs
    (* Full-run keys stay byte-identical to the pre-sampling daemon, so
       existing cell journals keep validating; sampled keys carry the
       canonical config so sampled and full cells can never share a
       memo entry or journal line. *)
    (match sample with
    | None -> ""
    | Some s -> "/sampled/" ^ Sample_config.to_string s)

(* ----- grid requests ----- *)

let spec_of_req (g : P.grid_req) : Grid.spec =
  { tag = g.tag;
    title = g.tag;
    with_mean = false;
    metric = g.metric;
    columns = g.columns;
    names = g.names }

(* ----- request admission ----- *)

(* Enough for any committed figure at golden or paper sizes, small
   enough that a corrupt budget cannot wedge the pool for hours. *)
let max_cell_instrs = 10_000_000

(* Rendered unexpected-lint findings for one catalog workload, cached
   for the daemon's lifetime (the catalog programs cannot change under
   a running daemon).  The lint itself runs outside the mutex would be
   nicer, but it is a few milliseconds once per workload ever. *)
let lint_findings t name =
  Mutex.lock t.lint_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lint_mutex)
    (fun () ->
      match Hashtbl.find_opt t.lint_cache name with
      | Some diags -> diags
      | None ->
        let diags =
          List.map
            (fun d -> Format.asprintf "%s: %a" name Lint.pp_diag d)
            (Check_runner.lint_workload name)
        in
        Hashtbl.replace t.lint_cache name diags;
        diags)

(* Validate a grid request before any cell is scheduled: budget sanity,
   grid-spec shape, then the crisp-check admission lint over every
   requested workload.  [Error (reason, diags)] becomes a structured
   [Invalid_request] frame. *)
let admit t (g : P.grid_req) =
  let bad_budget what v =
    Printf.sprintf "%s must be within [1, %d], got %d" what max_cell_instrs v
  in
  if g.eval_instrs < 1 || g.eval_instrs > max_cell_instrs then
    Error (bad_budget "eval_instrs" g.eval_instrs, [])
  else if g.train_instrs < 1 || g.train_instrs > max_cell_instrs then
    Error (bad_budget "train_instrs" g.train_instrs, [])
  else
    match
      if g.sample = "" then Ok None
      else Result.map Option.some (Sample_config.of_string g.sample)
    with
    | Error msg -> Error ("malformed sample config: " ^ msg, [])
    | Ok sample -> (
      match Grid.validate (spec_of_req g) with
      | Error msg -> Error ("malformed grid spec: " ^ msg, [])
      | Ok () -> (
        (* validate already pinned every name to the catalog *)
        let failing =
          List.filter_map
            (fun name ->
              match lint_findings t name with [] -> None | ds -> Some (name, ds))
            (List.sort_uniq compare g.names)
        in
        match failing with
        | [] -> Ok sample
        | _ ->
          Error
            ( Printf.sprintf "%d workload(s) fail the crisp-check lint"
                (List.length failing),
              List.concat_map snd failing )))

(* Pool-pressure admission: refuse new grids while the shared queue is
   deeper than the configured cap, so a flood of concurrent grids sheds
   load instead of growing the queue without bound. *)
let queue_overloaded t =
  match t.cfg.limits.max_queued with
  | None -> false
  | Some cap -> (Exec.Pool.stats t.cfg.pool).queued > cap

let serve_grid t ~send (g : P.grid_req) =
  match admit t g with
  | Error (reason, diags) ->
    log t "rejecting grid %s (%s): %s" g.tag g.id reason;
    send (P.Invalid_request { req_id = g.id; reason; diags })
  | Ok sample ->
    if sample <> None then log t "grid %s (%s) runs sampled: %s" g.tag g.id g.sample;
    let names = Array.of_list g.names in
    let columns = Array.of_list g.columns in
    let nrows = Array.length names and ncols = Array.length columns in
    let key name j =
      cell_key ?sample ~eval_instrs:g.eval_instrs ~train_instrs:g.train_instrs
        ~metric:g.metric ~name columns.(j)
    in
    if sample <> None then ignore (Atomic.fetch_and_add t.sampled_cells (nrows * ncols));
    let computed = ref 0 and memo_hits = ref 0 and journal_hits = ref 0 in
    let degraded = ref 0 in
    Cell_store.grid t.cells ~names:g.names ~cols:g.columns ~arity:1 ~ident:key
      ~cell:(fun name column ->
        [ Grid.cell_value ?sample ~eval_instrs:g.eval_instrs
            ~train_instrs:g.train_instrs ~name ~metric:g.metric column ])
      (fun r c cell_id source outcome ->
        (match source with
        | P.Computed -> incr computed
        | P.Memo_hit -> incr memo_hits
        | P.Journal_hit -> incr journal_hits);
        (match outcome with
        | Error reason ->
          incr degraded;
          log t "degraded %s: %s" cell_id reason
        | Ok _ when source <> P.Memo_hit ->
          log t "%s %s" (P.source_to_string source) cell_id
        | Ok _ -> ());
        send
          (P.Cell
             { cell_id;
               row = r;
               col = c;
               name = names.(r);
               label = columns.(c).Grid.label;
               source;
               outcome = Result.map List.hd outcome }));
    let served = Atomic.fetch_and_add t.requests_served 1 + 1 in
    (match t.server_journal with
    | None -> ()
    | Some j -> (
      try
        Resil.Journal.record j ~key:"requests_served" ~payload:(string_of_int served);
        Resil.Journal.record j ~key:("last_request/" ^ g.tag) ~payload:g.id
      with _ -> ()));
    log t "grid %s (%s) done: %d cells, %d computed, %d memo, %d journal, %d degraded"
      g.tag g.id (nrows * ncols) !computed !memo_hits !journal_hits !degraded;
    send
      (P.Summary
         { req_id = g.id;
           cells = nrows * ncols;
           computed = !computed;
           memo_hits = !memo_hits;
           journal_hits = !journal_hits;
           degraded = !degraded;
           sample = g.sample;
           farm = stats t })

(* ----- connections ----- *)

let stop t =
  if not (Atomic.exchange t.stop_flag true) then
    match Atomic.get t.listen_fd with
    | Some fd ->
      (* shutdown(2), not close(2): closing a listening socket does not
         wake a thread blocked in accept(2) on Linux, but shutting it
         down makes the accept fail immediately (EINVAL).  The fd itself
         is closed by {!run}'s cleanup once the loop exits. *)
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    | None -> ()

(* One client connection, under the full lifecycle discipline:
   - every read carries the idle deadline (reap silent connections) and
     the io deadline (evict a slowloris trickling a frame byte by byte);
   - every write carries the io deadline (evict a dead reader whose
     socket buffer is full);
   - the drain flag is polled between frames, so an idle connection
     learns about a drain within ~50ms via a [Draining] frame;
   - a finite request budget recycles long-lived connections. *)
let handle_client t fd =
  let limits = t.cfg.limits in
  (match limits.sndbuf with
  | None -> ()
  | Some n -> (
    try Unix.setsockopt_int fd Unix.SO_SNDBUF n with Unix.Unix_error _ -> ()));
  Unix.set_nonblock fd;
  let send resp =
    Resil.Fault_plan.hit "farm.send";
    Farm_frame.write_fd ?io_timeout:limits.io_timeout fd (P.encode_response resp)
  in
  let draining () = Atomic.get t.stop_flag in
  let requests = ref 0 in
  let rec loop () =
    if !requests >= limits.max_requests_per_conn then begin
      (* Budget exhausted: recycle the connection.  retry_after 0 tells
         a well-behaved client to simply reconnect. *)
      log t "recycling connection after %d requests" !requests;
      send (P.Overloaded { retry_after_ms = 0 })
    end
    else
      match
        Farm_frame.read_fd ?idle_timeout:limits.idle_timeout
          ?io_timeout:limits.io_timeout ~poll:draining fd
      with
      | `Eof -> ()
      | `Abort ->
        (* The daemon started draining while this connection sat between
           frames; say so and hang up. *)
        send P.Draining
      | `Idle_timeout -> log t "reaping idle connection"
      | `Timeout ->
        (* A frame started but never completed — the slowloris
           signature.  Evict without a goodbye: the peer is hostile or
           wedged, and a reply would just block on it. *)
        log t "evicting slow client: frame did not complete within %gs"
          (Option.value limits.io_timeout ~default:0.)
      | `Frame payload -> begin
        incr requests;
        match P.decode_request payload with
        | Error msg ->
          (* A client that speaks garbage gets one loud error and the
             door: resynchronising a confused peer helps nobody. *)
          log t "rejecting request: %s" msg;
          send (P.Error_reply msg)
        | Ok P.Ping ->
          send P.Pong;
          loop ()
        | Ok P.Stats ->
          send (P.Stats_reply (stats t));
          loop ()
        | Ok P.Shutdown ->
          log t "shutdown requested by client";
          send P.Shutting_down;
          stop t
        | Ok (P.Run_grid g) ->
          if queue_overloaded t then begin
            log t "shedding grid %s (%s): pool queue over cap" g.tag g.id;
            send (P.Overloaded { retry_after_ms = limits.retry_after_ms })
          end
          else begin
            serve_grid t ~send g;
            (* An in-flight grid finishes streaming even under drain;
               only then does the connection learn the daemon is gone. *)
            if draining () then send P.Draining else loop ()
          end
      end
  in
  (try loop () with
  | Farm_frame.Frame_error msg ->
    log t "client framing error: %s" msg;
    (try send (P.Error_reply ("framing error: " ^ msg))
     with Farm_frame.Io_timeout _ | Farm_frame.Frame_error _ | Unix.Unix_error _
     -> ())
  | Farm_frame.Io_timeout msg -> log t "evicting dead reader: %s" msg
  | Resil.Fault_plan.Injected site -> log t "injected fault at %s" site
  | Sys_error _ | Unix.Unix_error _ -> (* peer vanished mid-write *) ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Over-cap connections get a structured [Overloaded] frame (best
   effort, under a short deadline so a hostile non-reader cannot stall
   the accept loop) and are closed without ever getting a handler
   thread. *)
let shed t client =
  log t "shedding connection: %d handler(s) at cap %d" (Atomic.get t.conns)
    t.cfg.limits.max_connections;
  (try
     Unix.set_nonblock client;
     Farm_frame.write_fd ~io_timeout:1.0 client
       (P.encode_response
          (P.Overloaded { retry_after_ms = t.cfg.limits.retry_after_ms }))
   with Farm_frame.Io_timeout _ | Unix.Unix_error _ | Sys_error _ -> ());
  try Unix.close client with Unix.Unix_error _ -> ()

let run t =
  (* A dying client must surface as EPIPE on our write, not kill the
     daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  if Sys.file_exists t.cfg.socket then Unix.unlink t.cfg.socket;
  Unix.bind fd (Unix.ADDR_UNIX t.cfg.socket);
  Unix.listen fd 64;
  Atomic.set t.listen_fd (Some fd);
  (* {!stop} may have raced the publication above: it flips the flag
     before reading the fd, and we publish the fd before re-reading the
     flag, so at least one side observes the other. *)
  if Atomic.get t.stop_flag then
    (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  log t "listening on %s (%d workers, %d connections max)" t.cfg.socket
    (Exec.Pool.parallelism t.cfg.pool)
    t.cfg.limits.max_connections;
  (* Live handler threads, keyed by a private connection id.  Handlers
     remove themselves on exit (insertion holds the mutex, so a handler
     cannot race its own registration), keeping the table bounded by the
     connection cap instead of growing for the daemon's lifetime. *)
  let clients : (int, Thread.t) Hashtbl.t =
    Hashtbl.create t.cfg.limits.max_connections
  in
  let clients_mutex = Mutex.create () in
  let with_clients f =
    Mutex.lock clients_mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock clients_mutex) f
  in
  let conn_counter = ref 0 in
  let spawn client =
    Atomic.incr t.conns;
    with_clients (fun () ->
        let id = !conn_counter in
        incr conn_counter;
        let th =
          Thread.create
            (fun () ->
              Fun.protect
                (fun () -> handle_client t client)
                ~finally:(fun () ->
                  Atomic.decr t.conns;
                  with_clients (fun () -> Hashtbl.remove clients id)))
            ()
        in
        Hashtbl.replace clients id th)
  in
  (* Join every live handler; a handler that removes itself mid-snapshot
     has already finished its work, so the loop converges. *)
  let rec drain_clients () =
    match
      with_clients (fun () ->
          Hashtbl.fold (fun _ th acc -> th :: acc) clients [])
    with
    | [] -> ()
    | ths ->
      List.iter (fun th -> try Thread.join th with _ -> ()) ths;
      drain_clients ()
  in
  let rec accept_loop () =
    if not (Atomic.get t.stop_flag) then
      match Unix.accept ~cloexec:true fd with
      | client, _ ->
        if Atomic.get t.stop_flag then
          (try Unix.close client with Unix.Unix_error _ -> ())
        else if Atomic.get t.conns >= t.cfg.limits.max_connections then
          shed t client
        else spawn client;
        accept_loop ()
      | exception Unix.Unix_error ((EINTR | ECONNABORTED), _, _) -> accept_loop ()
      | exception Unix.Unix_error _ when Atomic.get t.stop_flag ->
        (* {!stop} closed the socket under us to unblock this accept. *)
        ()
  in
  Fun.protect accept_loop ~finally:(fun () ->
      stop t;
      drain_clients ();
      Atomic.set t.listen_fd None;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (try Unix.unlink t.cfg.socket with Unix.Unix_error _ | Sys_error _ -> ());
      (* Mark the drain complete so a restarted daemon (and the chaos
         harness) can tell a graceful exit from a SIGKILL. *)
      (match t.server_journal with
      | None -> ()
      | Some j -> (
        try
          Resil.Journal.record j ~key:"clean_shutdown"
            ~payload:(string_of_int (Atomic.get t.requests_served))
        with _ -> ()));
      log t "stopped after %d requests" (Atomic.get t.requests_served))
