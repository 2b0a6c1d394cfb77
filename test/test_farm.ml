(* Tests for the simulation farm: the length-prefixed frame layer (loud
   rejection of truncated/oversized/garbage input), qcheck roundtrips of
   the JSON wire protocol, and the end-to-end daemon property — two
   concurrent clients with overlapping grids get rows identical to the
   sequential runner while overlapping cells simulate exactly once, and
   a restarted daemon serves journalled cells without recomputing. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let tmpdir =
  let counter = ref 0 in
  fun () ->
    let rec go () =
      incr counter;
      (* Short paths: the socket lives here and sun_path is ~107 bytes. *)
      let p =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "cfarm%d.%d" (Unix.getpid ()) !counter)
      in
      match Unix.mkdir p 0o700 with
      | () -> p
      | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go ()
    in
    go ()

(* ---------------- Farm_frame ---------------- *)

let test_frame_roundtrip () =
  List.iter
    (fun payload ->
      let wire = Farm_frame.encode payload in
      check int "frame size" (4 + String.length payload) (String.length wire);
      match Farm_frame.decode wire ~pos:0 with
      | Some (p, next) ->
        check string "payload survives" payload p;
        check int "cursor lands at end" (String.length wire) next
      | None -> Alcotest.fail "complete frame not decoded")
    [ ""; "x"; "{\"req\":\"ping\"}"; String.make 4096 'a' ]

let test_frame_incomplete_prefix () =
  let wire = Farm_frame.encode "hello world" in
  for cut = 0 to String.length wire - 1 do
    match Farm_frame.decode (String.sub wire 0 cut) ~pos:0 with
    | None -> ()
    | Some _ -> Alcotest.failf "decoded a %d-byte prefix of a %d-byte frame" cut
                  (String.length wire)
  done

let test_frame_oversized_rejected () =
  (match Farm_frame.encode (String.make (Farm_frame.max_frame_bytes + 1) 'x') with
  | exception Farm_frame.Frame_error _ -> ()
  | _ -> Alcotest.fail "oversized encode accepted");
  let huge = Bytes.create 4 in
  Bytes.set_int32_be huge 0 0x7fffffffl;
  (match Farm_frame.decode (Bytes.to_string huge) ~pos:0 with
  | exception Farm_frame.Frame_error _ -> ()
  | _ -> Alcotest.fail "oversized declared length accepted");
  let negative = Bytes.create 4 in
  Bytes.set_int32_be negative 0 (-1l);
  match Farm_frame.decode (Bytes.to_string negative) ~pos:0 with
  | exception Farm_frame.Frame_error _ -> ()
  | _ -> Alcotest.fail "negative declared length accepted"

(* ---------------- Farm_frame fd layer: deadlines, torn streams ---------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    (fun () -> f a b)
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

(* Garbage header bytes decode as an absurd length and fail loudly,
   exactly what a confused peer looks like.  Clean streams and
   truncation at every byte are covered by the test below. *)
let test_frame_read_streams () =
  with_socketpair @@ fun a b ->
  write_all a "GARBAGE-NOT-A-FRAME";
  Unix.close a;
  match Farm_frame.read_fd ~idle_timeout:5. ~io_timeout:5. b with
  | exception Farm_frame.Frame_error _ -> ()
  | _ -> Alcotest.fail "garbage accepted as a frame"

(* Sever a two-frame stream at every byte boundary: the reader must
   deliver exactly the complete frames, then diagnose a clean EOF at a
   frame boundary or a torn frame anywhere else — and never hang. *)
let test_fd_truncate_every_boundary () =
  let f1 = Farm_frame.encode "hello" in
  let wire = f1 ^ Farm_frame.encode "world!!" in
  let boundary1 = String.length f1 in
  for cut = 0 to String.length wire do
    with_socketpair @@ fun a b ->
    write_all a (String.sub wire 0 cut);
    Unix.close a;
    let complete =
      if cut >= String.length wire then 2 else if cut >= boundary1 then 1 else 0
    in
    let at_boundary =
      cut = 0 || cut = boundary1 || cut = String.length wire
    in
    let rec drain n =
      match Farm_frame.read_fd ~idle_timeout:5. ~io_timeout:5. b with
      | `Frame _ -> drain (n + 1)
      | `Eof -> `Clean n
      | `Idle_timeout | `Timeout | `Abort -> `Hung
      | exception Farm_frame.Frame_error _ -> `Torn n
    in
    match drain 0 with
    | `Clean n ->
      if not (n = complete && at_boundary) then
        Alcotest.failf "cut %d: clean EOF with %d frame(s), expected %d at %s"
          cut n complete (if at_boundary then "a boundary" else "mid-frame")
    | `Torn n ->
      if not (n = complete && not at_boundary) then
        Alcotest.failf "cut %d: torn after %d frame(s)" cut n
    | `Hung -> Alcotest.failf "cut %d: reader hit a deadline instead of diagnosing" cut
  done

let test_fd_idle_timeout () =
  with_socketpair @@ fun _a b ->
  let t0 = Unix.gettimeofday () in
  match Farm_frame.read_fd ~idle_timeout:0.15 ~io_timeout:5. b with
  | `Idle_timeout ->
    check bool "reaped promptly" true (Unix.gettimeofday () -. t0 < 3.)
  | _ -> Alcotest.fail "expected Idle_timeout on a silent connection"

(* The slowloris signature: bytes keep arriving, so an idle deadline
   never fires, but the frame never completes — the io deadline must
   count from the frame's first byte and not reset per byte. *)
let test_fd_slowloris_timeout () =
  with_socketpair @@ fun a b ->
  let wire = Farm_frame.encode "a payload long enough to trickle" in
  let stop = Atomic.make false in
  let trickler =
    Thread.create
      (fun () ->
        String.iter
          (fun c ->
            if not (Atomic.get stop) then begin
              (try write_all a (String.make 1 c) with Unix.Unix_error _ -> ());
              Thread.delay 0.05
            end)
          wire)
      ()
  in
  let t0 = Unix.gettimeofday () in
  let r = Farm_frame.read_fd ~idle_timeout:10. ~io_timeout:0.25 b in
  let dt = Unix.gettimeofday () -. t0 in
  Atomic.set stop true;
  Thread.join trickler;
  (match r with
  | `Timeout -> ()
  | _ -> Alcotest.fail "trickling one byte at a time must trip the io deadline");
  check bool "evicted around the io deadline, not the idle one" true
    (dt >= 0.2 && dt < 5.)

let test_fd_poll_abort () =
  with_socketpair @@ fun _a b ->
  let flag = Atomic.make false in
  let setter =
    Thread.create (fun () -> Thread.delay 0.1; Atomic.set flag true) ()
  in
  (match Farm_frame.read_fd ~idle_timeout:10. ~poll:(fun () -> Atomic.get flag) b with
  | `Abort -> ()
  | _ -> Alcotest.fail "expected Abort when the poll callback flips");
  Thread.join setter

(* A dead reader: the peer never drains its socket, so once the kernel
   buffers fill, a deadline-guarded write must give up loudly. *)
let test_fd_write_deadline_dead_reader () =
  with_socketpair @@ fun a _b ->
  (try Unix.setsockopt_int a Unix.SO_SNDBUF 1 with Unix.Unix_error _ -> ());
  Unix.set_nonblock a;
  let payload = String.make 4096 'x' in
  let t0 = Unix.gettimeofday () in
  match
    for _ = 1 to 10_000 do
      Farm_frame.write_fd ~io_timeout:0.2 a payload
    done
  with
  | () -> Alcotest.fail "10k frames into a dead reader never tripped the deadline"
  | exception Farm_frame.Io_timeout _ ->
    check bool "dead reader detected promptly" true
      (Unix.gettimeofday () -. t0 < 10.)

let test_fd_roundtrip () =
  with_socketpair @@ fun a b ->
  List.iter
    (fun p ->
      Farm_frame.write_fd ~io_timeout:5. a p;
      match Farm_frame.read_fd ~idle_timeout:5. ~io_timeout:5. b with
      | `Frame got -> check string "fd roundtrip" p got
      | _ -> Alcotest.fail "expected a frame")
    [ ""; "x"; "{\"req\":\"ping\"}"; String.make 70_000 'q' ]

(* ---------------- Farm_protocol roundtrips ---------------- *)

(* Encoding is deterministic, so [encode (decode (encode m)) = encode m]
   is a full roundtrip property that sidesteps NaN <> NaN float
   comparison in message records. *)

let gen_name =
  QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 12))

let gen_label =
  (* Printable text with the characters JSON must escape. *)
  QCheck.Gen.(
    string_size ~gen:(oneof [ char_range ' ' '~'; return '"'; return '\\' ])
      (int_range 0 16))

let gen_float =
  QCheck.Gen.(
    oneof
      [ float;
        oneofl [ 0.; -0.; 1e-300; 1.7976931348623157e308; 0.0423728813559322 ] ])

let gen_column =
  let open QCheck.Gen in
  let* label = gen_label in
  let* variant = gen_name in
  let* threshold = opt gen_float in
  let* window = opt (pair (int_range 1 512) (int_range 1 1024)) in
  return { Grid.label; variant; threshold; window }

(* "" (full fidelity, omitted from the wire) plus canonical sampled
   configs as {!Sample_config.to_string} prints them. *)
let gen_sample =
  QCheck.Gen.oneofl
    [ ""; "units=30,unit=1000,warmup=2000"; "units=8,unit=500,warmup=1000" ]

let gen_request =
  let open QCheck.Gen in
  oneof
    [ return Farm_protocol.Ping;
      return Farm_protocol.Stats;
      return Farm_protocol.Shutdown;
      (let* id = gen_name in
       let* tag = gen_name in
       let* metric =
         oneofl [ Grid.Gain; Grid.Slice_size; Grid.Static_count ]
       in
       let* eval_instrs = int_range 0 1_000_000 in
       let* train_instrs = int_range 0 1_000_000 in
       let* names = list_size (int_range 0 6) gen_name in
       let* columns = list_size (int_range 0 6) gen_column in
       let* sample = gen_sample in
       return
         (Farm_protocol.Run_grid
            { id; tag; metric; eval_instrs; train_instrs; names; columns;
              sample })) ]

let gen_memo_stats =
  let open QCheck.Gen in
  let* hits = small_nat and* misses = small_nat and* dedups = small_nat in
  let* evictions = small_nat and* entries = small_nat in
  return { Exec.Memo.hits; misses; dedups; evictions; entries }

let gen_pool_stats =
  let open QCheck.Gen in
  let* workers = int_range 1 64 and* queued = small_nat in
  let* running = small_nat and* stolen = small_nat in
  return { Exec.Pool.workers; queued; running; stolen }

let gen_farm_stats =
  let open QCheck.Gen in
  let* memo = gen_memo_stats and* pool = gen_pool_stats in
  let* journal_cells = small_nat and* requests_served = small_nat in
  let* sampled_cells = small_nat in
  return
    { Farm_protocol.memo; pool; journal_cells; requests_served; sampled_cells }

let gen_response =
  let open QCheck.Gen in
  oneof
    [ return Farm_protocol.Pong;
      return Farm_protocol.Shutting_down;
      return Farm_protocol.Draining;
      (let* retry_after_ms = small_nat in
       return (Farm_protocol.Overloaded { retry_after_ms }));
      (let* s = gen_farm_stats in
       return (Farm_protocol.Stats_reply s));
      (let* msg = gen_label in
       return (Farm_protocol.Error_reply msg));
      (let* req_id = gen_name in
       let* reason = gen_label in
       return (Farm_protocol.Invalid_request { req_id; reason }));
      (let* cell_id = gen_name in
       let* row = small_nat and* col = small_nat in
       let* name = gen_name and* label = gen_label in
       let* source =
         oneofl
           [ Farm_protocol.Computed; Farm_protocol.Memo_hit;
             Farm_protocol.Journal_hit ]
       in
       let* outcome =
         oneof
           [ (let* v = gen_float in
              return (Ok v));
             (let* r = gen_label in
              return (Error r)) ]
       in
       return
         (Farm_protocol.Cell { cell_id; row; col; name; label; source; outcome }));
      (let* req_id = gen_name in
       let* cells = small_nat and* computed = small_nat in
       let* memo_hits = small_nat and* journal_hits = small_nat in
       let* degraded = small_nat and* farm = gen_farm_stats in
       let* sample = gen_sample in
       return
         (Farm_protocol.Summary
            { req_id; cells; computed; memo_hits; journal_hits; degraded;
              sample; farm }))
    ]

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request roundtrips through the wire" ~count:200
    (QCheck.make gen_request ~print:Farm_protocol.encode_request)
    (fun req ->
      let wire = Farm_protocol.encode_request req in
      match Farm_protocol.decode_request wire with
      | Error msg -> QCheck.Test.fail_reportf "decode rejected %s: %s" wire msg
      | Ok req' -> String.equal wire (Farm_protocol.encode_request req'))

let prop_response_roundtrip =
  QCheck.Test.make ~name:"response roundtrips through the wire" ~count:200
    (QCheck.make gen_response ~print:Farm_protocol.encode_response)
    (fun resp ->
      let wire = Farm_protocol.encode_response resp in
      match Farm_protocol.decode_response wire with
      | Error msg -> QCheck.Test.fail_reportf "decode rejected %s: %s" wire msg
      | Ok resp' -> String.equal wire (Farm_protocol.encode_response resp'))

(* Frames also survive the framing layer unchanged. *)
let prop_framed_roundtrip =
  QCheck.Test.make ~name:"framed message survives encode+decode" ~count:100
    (QCheck.make gen_request ~print:Farm_protocol.encode_request)
    (fun req ->
      let payload = Farm_protocol.encode_request req in
      match Farm_frame.decode (Farm_frame.encode payload) ~pos:0 with
      | Some (p, _) -> String.equal p payload
      | None -> false)

let test_decode_rejects_garbage () =
  let rejected what s decode =
    match decode s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted: %s" what s
  in
  List.iter
    (fun s ->
      rejected "request" s Farm_protocol.decode_request;
      rejected "response" s Farm_protocol.decode_response)
    [ ""; "{"; "null"; "42"; "\"ping\""; "{}"; "{\"req\":\"warp\"}";
      "{\"resp\":\"warp\"}"; "{\"req\":\"grid\",\"id\":\"x\"}" ];
  (* Structurally valid JSON with broken fields. *)
  rejected "float row index"
    "{\"resp\":\"cell\",\"cell\":\"k\",\"row\":1.5,\"col\":0,\"name\":\"n\",\
     \"label\":\"l\",\"source\":\"memo\",\"ok\":1}"
    Farm_protocol.decode_response;
  rejected "unknown source"
    "{\"resp\":\"cell\",\"cell\":\"k\",\"row\":1,\"col\":0,\"name\":\"n\",\
     \"label\":\"l\",\"source\":\"psychic\",\"ok\":1}"
    Farm_protocol.decode_response;
  rejected "conflicting outcome"
    "{\"resp\":\"cell\",\"cell\":\"k\",\"row\":1,\"col\":0,\"name\":\"n\",\
     \"label\":\"l\",\"source\":\"memo\",\"ok\":1,\"degraded\":\"r\"}"
    Farm_protocol.decode_response;
  rejected "rejection without a reason"
    "{\"resp\":\"invalid\",\"id\":\"r\"}"
    Farm_protocol.decode_response;
  rejected "overloaded with a negative retry hint"
    "{\"resp\":\"overloaded\",\"retry_after_ms\":-5}"
    Farm_protocol.decode_response;
  rejected "overloaded without a retry hint"
    "{\"resp\":\"overloaded\"}"
    Farm_protocol.decode_response;
  rejected "overloaded with a float retry hint"
    "{\"resp\":\"overloaded\",\"retry_after_ms\":1.5}"
    Farm_protocol.decode_response;
  rejected "bad window arity"
    "{\"req\":\"grid\",\"id\":\"i\",\"tag\":\"t\",\"metric\":\"gain\",\
     \"eval_instrs\":1,\"train_instrs\":1,\"names\":[],\
     \"columns\":[{\"label\":\"l\",\"variant\":\"crisp\",\"window\":[1]}]}"
    Farm_protocol.decode_request

(* Full-fidelity frames must be byte-identical to the pre-sampling
   protocol: the sample field only travels when non-empty, and a
   pre-sampling daemon's frames (no sample, no sampled_cells) still
   decode. *)
let test_sample_wire_compat () =
  let req sample =
    Farm_protocol.Run_grid
      { id = "i"; tag = "t"; metric = Grid.Gain; eval_instrs = 1;
        train_instrs = 1; names = [ "xz" ]; columns = []; sample }
  in
  let contains ~sub s =
    let n = String.length sub and len = String.length s in
    let rec go i = i + n <= len && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let full = Farm_protocol.encode_request (req "") in
  check bool "full-run request carries no sample key" false
    (contains ~sub:"sample" full);
  let sampled =
    Farm_protocol.encode_request (req "units=30,unit=1000,warmup=2000")
  in
  check bool "sampled request carries the config" true
    (contains ~sub:"units=30,unit=1000,warmup=2000" sampled);
  (match Farm_protocol.decode_request sampled with
  | Ok (Farm_protocol.Run_grid g) ->
    check string "config round-trips" "units=30,unit=1000,warmup=2000"
      g.Farm_protocol.sample
  | Ok _ | Error _ -> Alcotest.fail "sampled request did not decode");
  (* A pre-sampling peer's frames decode with the defaults. *)
  match
    Farm_protocol.decode_request
      "{\"req\":\"grid\",\"id\":\"i\",\"tag\":\"t\",\"metric\":\"gain\",\
       \"eval_instrs\":1,\"train_instrs\":1,\"names\":[],\"columns\":[]}"
  with
  | Ok (Farm_protocol.Run_grid g) ->
    check string "absent sample decodes as full fidelity" ""
      g.Farm_protocol.sample
  | Ok _ | Error _ -> Alcotest.fail "pre-sampling request did not decode"

(* ---------------- end-to-end daemon ---------------- *)

let small_eval = 4000
let small_train = 3000

let col ?threshold ?window label variant =
  { Grid.label; variant; threshold; window }

(* Two grids with different tags that overlap on the (pointer_chase, xz)
   x crisp cells: cell identity must be tag-independent. *)
let grid_a : Grid.spec =
  { tag = "farm-a"; title = "farm A"; with_mean = false; metric = Grid.Gain;
    columns = [ col "CRISP" "crisp"; col "IBDA-1K" "ibda-1k" ];
    names = [ "pointer_chase"; "xz" ] }

let grid_b : Grid.spec =
  { tag = "farm-b"; title = "farm B"; with_mean = false; metric = Grid.Gain;
    columns = [ col "CRISP" "crisp" ];
    names = [ "pointer_chase"; "xz"; "nab" ] }

(* With [?pool] the caller owns (and shuts down) the server's pool. *)
let with_server ?journal_dir ?(limits = Farm_server.default_limits) ?pool ~workers f =
  let owned = pool = None && workers > 1 in
  let dir = tmpdir () in
  let socket = Filename.concat dir "s" in
  let pool =
    match pool with
    | Some p -> p
    | None -> if owned then Exec.Pool.create ~workers () else Exec.Pool.sequential
  in
  let srv =
    Farm_server.create
      { Farm_server.socket; pool; policy = Resil.Supervise.default_policy;
        journal_dir; verbose = false; limits }
  in
  let th = Thread.create Farm_server.run srv in
  Fun.protect
    (fun () -> f ~socket ~srv)
    ~finally:(fun () ->
      Farm_server.stop srv;
      Thread.join th;
      if owned then Exec.Pool.shutdown pool)

let connect ?io_timeout socket =
  let rec go n =
    match Farm_client.connect ?io_timeout ~socket () with
    | c -> c
    | exception Farm_client.Disconnected _ when n > 0 ->
      Thread.delay 0.02;
      go (n - 1)
  in
  go 250

let run_one socket (spec : Grid.spec) =
  let c = connect socket in
  Fun.protect
    ~finally:(fun () -> Farm_client.close c)
    (fun () ->
      Farm_client.run_grid c ~spec ~eval_instrs:small_eval
        ~train_instrs:small_train ())

(* The sequential reference: what `experiments --jobs 1` computes for the
   same spec (Grid.cell_value is exactly its cell function). *)
let reference (spec : Grid.spec) =
  List.map
    (fun name ->
      ( name,
        List.map
          (Grid.cell_value ~eval_instrs:small_eval ~train_instrs:small_train
             ~name ~metric:spec.Grid.metric)
          spec.Grid.columns ))
    spec.Grid.names

let check_rows what expected (rows : (string * float list) list) =
  (* Exact float equality: the wire must not perturb a single bit. *)
  check bool what true (expected = rows)

let test_farm_matches_sequential_exactly_once () =
  Runner.clear_cache ();
  with_server ~workers:2 @@ fun ~socket ~srv ->
  let results = Array.make 2 None in
  let client i spec () = results.(i) <- Some (run_one socket spec) in
  let t1 = Thread.create (client 0 grid_a) () in
  let t2 = Thread.create (client 1 grid_b) () in
  Thread.join t1;
  Thread.join t2;
  let ra = Option.get results.(0) and rb = Option.get results.(1) in
  check int "grid A streamed all cells" 4 ra.Farm_client.summary.Farm_protocol.cells;
  check int "grid B streamed all cells" 3 rb.Farm_client.summary.Farm_protocol.cells;
  check int "nothing degraded" 0
    (ra.Farm_client.summary.Farm_protocol.degraded
    + rb.Farm_client.summary.Farm_protocol.degraded);
  (* Exactly-once across clients: 4 + 3 cells, 2 overlapping -> 5 unique
     simulations, 2 served as hits or in-flight dedups. *)
  let st = Farm_server.stats srv in
  check int "unique cells simulated exactly once" 5
    st.Farm_protocol.memo.Exec.Memo.misses;
  check int "overlapping cells shared, not recomputed" 2
    (st.Farm_protocol.memo.Exec.Memo.hits
    + st.Farm_protocol.memo.Exec.Memo.dedups);
  check int "per-request accounting agrees" 5
    (ra.Farm_client.summary.Farm_protocol.computed
    + rb.Farm_client.summary.Farm_protocol.computed);
  (* Identical to the sequential runner, recomputed from scratch. *)
  Runner.clear_cache ();
  check_rows "grid A rows identical to sequential runner" (reference grid_a)
    ra.Farm_client.rows;
  check_rows "grid B rows identical to sequential runner" (reference grid_b)
    rb.Farm_client.rows

let test_farm_restart_serves_from_journal () =
  Runner.clear_cache ();
  let jdir = tmpdir () in
  let first =
    with_server ~journal_dir:jdir ~workers:1 @@ fun ~socket ~srv:_ ->
    run_one socket grid_b
  in
  check int "first run computes everything" 3
    first.Farm_client.summary.Farm_protocol.computed;
  (* Cold restart: fresh server state, cold runner memo.  The journal on
     disk is all that survives. *)
  Runner.clear_cache ();
  let misses_before = (Runner.cache_stats ()).Exec.Memo.misses in
  let second =
    with_server ~journal_dir:jdir ~workers:1 @@ fun ~socket ~srv:_ ->
    run_one socket grid_b
  in
  check int "restart recomputes nothing" 0
    second.Farm_client.summary.Farm_protocol.computed;
  check int "every cell restored from the journal" 3
    second.Farm_client.summary.Farm_protocol.journal_hits;
  let misses_after = (Runner.cache_stats ()).Exec.Memo.misses in
  check int "no simulation ran after the restart" misses_before misses_after;
  check bool "journalled rows identical to computed rows" true
    (first.Farm_client.rows = second.Farm_client.rows)

(* A peer speaking garbage gets a loud error and a closed connection,
   and the daemon survives to serve the next client. *)
let test_daemon_rejects_garbage_loudly () =
  with_server ~workers:1 @@ fun ~socket ~srv:_ ->
  (* Wait until the daemon is accepting before talking raw bytes. *)
  Farm_client.close (connect socket);
  let talk bytes =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect fd (Unix.ADDR_UNIX socket);
        write_all fd bytes;
        Unix.shutdown fd Unix.SHUTDOWN_SEND;
        let rec drain acc =
          match Farm_frame.read_fd ~idle_timeout:10. ~io_timeout:10. fd with
          | `Frame p -> drain (p :: acc)
          | `Eof | `Idle_timeout | `Timeout | `Abort -> List.rev acc
          | exception Farm_frame.Frame_error _ -> List.rev acc
          (* The daemon may close with our unread garbage still queued,
             which surfaces as a reset rather than a clean EOF. *)
          | exception Unix.Unix_error _ -> List.rev acc
        in
        drain [])
  in
  (* Valid frame, garbage payload: one Error_reply, then EOF. *)
  (match talk (Farm_frame.encode "certainly not json") with
  | [ one ] -> (
    match Farm_protocol.decode_response one with
    | Ok (Farm_protocol.Error_reply _) -> ()
    | _ -> Alcotest.fail "expected an error reply")
  | frames -> Alcotest.failf "expected 1 reply frame, got %d" (List.length frames));
  (* Framing-level garbage: connection dies (optionally after an error
     frame); the daemon must not. *)
  ignore (talk "\xff\xff\xff\xffgarbage");
  let c = connect socket in
  Farm_client.ping c;
  Farm_client.close c

(* A request that fails admission — absurd budget or a malformed grid
   spec — gets a structured rejection before any cell is scheduled, and
   the connection survives to serve the next request. *)
let test_daemon_rejects_inadmissible_grids () =
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
    go 0
  in
  with_server ~workers:1 @@ fun ~socket ~srv ->
  let c = connect socket in
  Fun.protect ~finally:(fun () -> Farm_client.close c) @@ fun () ->
  let expect_rejection what ~spec ~eval_instrs ~needle =
    match
      Farm_client.run_grid c ~spec ~eval_instrs ~train_instrs:small_train ()
    with
    | _ -> Alcotest.failf "%s: inadmissible request was admitted" what
    | exception Farm_client.Farm_error msg ->
      if not (contains msg needle) then
        Alcotest.failf "%s: rejection %S does not mention %S" what msg needle
  in
  (* Budget sanity: a zero instruction budget can simulate nothing. *)
  expect_rejection "zero eval budget" ~spec:grid_a ~eval_instrs:0
    ~needle:"eval_instrs";
  (* Spec shape: an off-catalog workload fails Grid.validate. *)
  let bad_spec =
    { grid_a with Grid.names = [ "pointer_chase"; "no_such_kernel" ] }
  in
  expect_rejection "off-catalog workload" ~spec:bad_spec ~eval_instrs:small_eval
    ~needle:"malformed grid spec";
  (* Sample config: [ci=] is not a key.  [Farm_client] only sends a
     parsed [Sample_config.t], so this request goes out as a raw frame. *)
  (let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
   Fun.protect
     ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
     (fun () ->
       Unix.connect fd (Unix.ADDR_UNIX socket);
       Farm_frame.write_fd fd
         (Farm_protocol.encode_request
            (Farm_protocol.Run_grid
               { id = "ci"; tag = grid_a.Grid.tag; metric = grid_a.Grid.metric;
                 eval_instrs = small_eval; train_instrs = small_train;
                 names = grid_a.Grid.names; columns = grid_a.Grid.columns;
                 sample = "units=30,unit=1000,warmup=2000,ci=0.01" }));
       match Farm_frame.read_fd ~idle_timeout:10. ~io_timeout:10. fd with
       | `Frame p -> (
         match Farm_protocol.decode_response p with
         | Ok (Farm_protocol.Invalid_request { reason; _ }) ->
           if not (contains reason "malformed sample config") then
             Alcotest.failf "ci= sample: rejection %S names the wrong cause" reason
         | _ -> Alcotest.fail "ci= sample: expected Invalid_request")
       | _ -> Alcotest.fail "ci= sample: no reply"));
  (* Nothing was scheduled, and the same connection still serves. *)
  check int "no request reached the runner" 0
    (Farm_server.stats srv).Farm_protocol.requests_served;
  Farm_client.ping c

(* Sampled and full runs of the same grid must never share memo keys: a
   sampled run issued right after a full run recomputes every cell, the
   daemon counts it, and the summary echoes the canonical config — while
   a sampled rerun hits the sampled entries. *)
let test_daemon_sampled_cells_distinct () =
  Runner.clear_cache ();
  let sample =
    match Sample_config.of_string "units=6,unit=500,warmup=1000" with
    | Ok s -> s
    | Error msg -> Alcotest.failf "sample config rejected: %s" msg
  in
  with_server ~workers:1 @@ fun ~socket ~srv ->
  let run ?sample () =
    let c = connect socket in
    Fun.protect
      ~finally:(fun () -> Farm_client.close c)
      (fun () ->
        Farm_client.run_grid c ?sample ~spec:grid_b ~eval_instrs:small_eval
          ~train_instrs:small_train ())
  in
  let full = run () in
  check int "full run computes all cells" 3
    full.Farm_client.summary.Farm_protocol.computed;
  check string "full summary carries no sample config" ""
    full.Farm_client.summary.Farm_protocol.sample;
  check int "full run counts no sampled cells" 0
    (Farm_server.stats srv).Farm_protocol.sampled_cells;
  let sampled = run ~sample () in
  check int "sampled run shares nothing with the full cells" 3
    sampled.Farm_client.summary.Farm_protocol.computed;
  check string "summary echoes the canonical sample config"
    (Sample_config.to_string sample)
    sampled.Farm_client.summary.Farm_protocol.sample;
  check int "daemon counted the sampled cells" 3
    (Farm_server.stats srv).Farm_protocol.sampled_cells;
  (* A sampled rerun is served from the sampled memo entries. *)
  let again = run ~sample () in
  check int "sampled rerun recomputes nothing" 0
    again.Farm_client.summary.Farm_protocol.computed

(* ---------------- lifecycle: shedding, eviction, drain ---------------- *)

let test_server_sheds_over_cap () =
  with_server
    ~limits:{ Farm_server.default_limits with max_connections = 1 }
    ~workers:1
  @@ fun ~socket ~srv:_ ->
  let c1 = connect socket in
  Fun.protect ~finally:(fun () -> Farm_client.close c1) @@ fun () ->
  Farm_client.ping c1;
  (* c1's handler is live, so the next connection is over cap. *)
  let c2 = connect socket in
  Fun.protect ~finally:(fun () -> Farm_client.close c2) @@ fun () ->
  match Farm_client.ping c2 with
  | () -> Alcotest.fail "over-cap connection was served"
  | exception Farm_client.Overloaded ms ->
    check int "shed carries the configured retry hint" 250 ms

(* Pool-pressure admission: with every worker held on a gate and one job
   queued behind them, a [max_queued = Some 0] daemon sheds a grid with
   [Overloaded] instead of queueing its cells.  A watchdog opens the gate
   after 10s, so a wrongly admitted grid (stuck behind the gate) fails
   the test instead of hanging it. *)
let test_server_sheds_on_saturated_pool () =
  let pool = Exec.Pool.create ~workers:1 () in
  let gate = Atomic.make false and started = Atomic.make false in
  let release () = Atomic.set gate true in
  Fun.protect ~finally:(fun () -> release (); Exec.Pool.shutdown pool) @@ fun () ->
  ignore (Thread.create (fun () -> Thread.delay 10.; release ()) ());
  ignore
    (Exec.Pool.submit pool (fun () ->
         Atomic.set started true;
         while not (Atomic.get gate) do
           Thread.yield ()
         done));
  ignore (Exec.Pool.submit pool ignore);
  while not (Atomic.get started) do
    Thread.yield ()
  done;
  check int "one job queued behind the gate" 1 (Exec.Pool.stats pool).Exec.Pool.queued;
  with_server
    ~limits:{ Farm_server.default_limits with max_queued = Some 0 }
    ~pool ~workers:1
  @@ fun ~socket ~srv ->
  (match run_one socket grid_a with
  | _ -> Alcotest.fail "grid admitted onto a saturated pool"
  | exception Farm_client.Overloaded ms ->
    check int "shed carries the configured retry hint" 250 ms);
  let st = Farm_server.stats srv in
  check int "no grid was served" 0 st.Farm_protocol.requests_served;
  check int "the shed grid queued no cell" 1 st.Farm_protocol.pool.Exec.Pool.queued

(* A healthy client may keep one connection for as long as it likes:
   the handler holds no per-connection state that grows, so no request
   count is refused. *)
let test_server_long_lived_connection () =
  with_server ~workers:1 @@ fun ~socket ~srv:_ ->
  let c = connect socket in
  Fun.protect ~finally:(fun () -> Farm_client.close c) @@ fun () ->
  for i = 1 to 10_001 do
    match Farm_client.ping c with
    | () -> ()
    | exception Farm_client.Overloaded ms ->
      Alcotest.failf "ping %d shed with Overloaded (retry %d ms)" i ms
  done

(* The acceptance property: a slowloris writer trickling a frame one
   byte at a time is evicted within the io deadline, while a healthy
   client on the same daemon completes its grid undisturbed. *)
let test_server_evicts_slowloris_healthy_unblocked () =
  Runner.clear_cache ();
  with_server
    ~limits:{ Farm_server.default_limits with io_timeout = Some 0.4 }
    ~workers:2
  @@ fun ~socket ~srv:_ ->
  Farm_client.close (connect socket);
  let healthy = ref None in
  let healthy_th =
    Thread.create (fun () -> healthy := Some (run_one socket grid_b)) ()
  in
  let sl = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sl with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sl (Unix.ADDR_UNIX socket);
      (* Start a frame, then trickle: far slower than the 0.4s io
         deadline, far faster than the 600s idle reap. *)
      let t0 = Unix.gettimeofday () in
      write_all sl "\x00\x00";
      let rec trickle i =
        if i > 60 then None
        else
          match write_all sl "\x00" with
          | () ->
            Thread.delay 0.15;
            trickle (i + 1)
          | exception Unix.Unix_error _ -> Some (Unix.gettimeofday () -. t0)
      in
      match trickle 0 with
      | None -> Alcotest.fail "slowloris was never evicted"
      | Some dt ->
        check bool "evicted within the io deadline (plus slack)" true (dt < 5.));
  Thread.join healthy_th;
  match !healthy with
  | None -> Alcotest.fail "healthy client blocked behind the slowloris"
  | Some r ->
    check int "healthy grid complete" 3 r.Farm_client.summary.Farm_protocol.cells;
    Runner.clear_cache ();
    check_rows "healthy rows identical to sequential" (reference grid_b)
      r.Farm_client.rows

(* A dead reader floods requests and never drains a single response;
   the handler's deadline-guarded writes must evict it mid-stream, and
   the daemon keeps serving others. *)
let test_server_evicts_dead_reader () =
  with_server
    ~limits:
      { Farm_server.default_limits with io_timeout = Some 0.4; sndbuf = Some 1 }
    ~workers:1
  @@ fun ~socket ~srv:_ ->
  Farm_client.close (connect socket);
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let ping = Farm_frame.encode (Farm_protocol.encode_request Farm_protocol.Ping) in
      let n_sent = ref 0 in
      (try
         for _ = 1 to 3000 do
           write_all fd ping;
           incr n_sent
         done
       with Unix.Unix_error _ -> ());
      (* Give the handler time to fill the send buffer and trip the
         write deadline. *)
      Thread.delay 1.2;
      (* The daemon still serves a healthy client meanwhile. *)
      let c = connect socket in
      Farm_client.ping c;
      Farm_client.close c;
      (* Drain what the dead reader left behind: the connection must be
         dead long before every ping was answered. *)
      let got = ref 0 in
      (try
         let rec drain () =
           match Farm_frame.read_fd ~idle_timeout:1. ~io_timeout:1. fd with
           | `Frame _ ->
             incr got;
             drain ()
           | _ -> ()
         in
         drain ()
       with Farm_frame.Frame_error _ | Unix.Unix_error _ -> ());
      if not (!got < !n_sent) then
        Alcotest.failf "dead reader was served all %d responses" !n_sent)

let test_server_drain_graceful () =
  Runner.clear_cache ();
  let jdir = tmpdir () in
  (with_server ~journal_dir:jdir ~workers:1 @@ fun ~socket ~srv ->
   (* An idle connection parked between frames... *)
   let idle = connect socket in
   Farm_client.ping idle;
   (* ...and a grid in flight when the drain begins. *)
   let result = ref None in
   let inflight =
     Thread.create (fun () -> result := Some (run_one socket grid_b)) ()
   in
   Thread.delay 0.05;
   Farm_server.stop srv;
   Thread.join inflight;
   (match !result with
   | None -> Alcotest.fail "in-flight grid lost under drain"
   | Some r ->
     check int "in-flight grid finished streaming under drain" 3
       r.Farm_client.summary.Farm_protocol.cells;
     Runner.clear_cache ();
     check_rows "drained rows identical to sequential" (reference grid_b)
       r.Farm_client.rows);
   (* The idle connection learns about the drain within a poll tick or
      two, via a structured Draining frame (surfaced as Disconnected). *)
   let rec expect_draining n =
     if n = 0 then Alcotest.fail "idle connection never saw the drain"
     else
       match Farm_client.ping idle with
       | () ->
         Thread.delay 0.02;
         expect_draining (n - 1)
       | exception Farm_client.Disconnected _ -> ()
   in
   expect_draining 100;
   Farm_client.close idle);
  (* with_server has joined the run loop: the graceful exit must be on
     record for the next daemon (and the chaos harness) to see. *)
  let j =
    Resil.Journal.in_dir ~dir:jdir ~name:"server"
      ~signature:"crisp-farm server v1"
  in
  match Resil.Journal.find j "clean_shutdown" with
  | Some _ -> ()
  | None -> Alcotest.fail "graceful drain did not journal clean_shutdown"

(* ---------------- chaos proxy ---------------- *)

let with_proxy ~plan ~upstream f =
  (* The in-process daemon binds on its own thread, and the proxy dials
     upstream once per client without retrying: wait until the daemon
     answers, or the first proxied client sees a bare EOF. *)
  Farm_client.close (connect upstream);
  let dir = tmpdir () in
  let listen = Filename.concat dir "p" in
  let px = Chaos_proxy.start ~listen ~upstream ~plan in
  Fun.protect
    (fun () -> f ~proxy_socket:listen ~px)
    ~finally:(fun () -> Chaos_proxy.stop px)

let test_proxy_passthrough_byte_identical () =
  Runner.clear_cache ();
  with_server ~workers:2 @@ fun ~socket ~srv:_ ->
  with_proxy ~plan:(Resil.Fault_plan.make []) ~upstream:socket
  @@ fun ~proxy_socket ~px ->
  let r = run_one proxy_socket grid_a in
  check int "all cells through the proxy" 4
    r.Farm_client.summary.Farm_protocol.cells;
  check bool "no faults fired on an empty plan" true (Chaos_proxy.fired px = []);
  check bool "frames actually flowed through the proxy" true
    (Chaos_proxy.frames px "wire.down" > 0);
  Runner.clear_cache ();
  check_rows "proxied rows identical to sequential" (reference grid_a)
    r.Farm_client.rows

(* The reconnect-and-resume e2e: a mid-stream disconnect (the proxy
   severs at, tears, or corrupts the length prefix of the 3rd downstream
   frame) forces a retry; the converged rows are byte-identical and no
   cell simulates twice. *)
let test_proxy_reconnect_exactly_once action () =
  Runner.clear_cache ();
  with_server ~workers:2 @@ fun ~socket ~srv ->
  let plan =
    Resil.Fault_plan.make
      [ { Resil.Fault_plan.site = "wire.down";
          selector = Any;
          count = Nth 3;
          action } ]
  in
  with_proxy ~plan ~upstream:socket @@ fun ~proxy_socket ~px ->
  let retry =
    { Farm_client.default_retry with attempts = 6; connect_timeout = 5. }
  in
  let r, attempts =
    Farm_client.run_grid_retrying ~socket:proxy_socket ~retry ~spec:grid_b
      ~eval_instrs:small_eval ~train_instrs:small_train ()
  in
  check bool "the fault actually fired" true (Chaos_proxy.fired px <> []);
  check bool "client had to reconnect" true (attempts >= 2);
  check int "every unique cell simulated exactly once across retries" 3
    (Farm_server.stats srv).Farm_protocol.memo.Exec.Memo.misses;
  check int "converged grid complete" 3 r.Farm_client.summary.Farm_protocol.cells;
  Runner.clear_cache ();
  check_rows "converged rows identical to sequential" (reference grid_b)
    r.Farm_client.rows

let () =
  Alcotest.run "farm"
    [ ( "frame",
        [ Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "incomplete prefix" `Quick test_frame_incomplete_prefix;
          Alcotest.test_case "oversized rejected" `Quick test_frame_oversized_rejected;
          Alcotest.test_case "channel read" `Quick test_frame_read_streams ] );
      ( "fd",
        [ Alcotest.test_case "truncated at every byte boundary" `Quick
            test_fd_truncate_every_boundary;
          Alcotest.test_case "idle timeout reaps silence" `Quick
            test_fd_idle_timeout;
          Alcotest.test_case "slowloris trips the io deadline" `Quick
            test_fd_slowloris_timeout;
          Alcotest.test_case "poll aborts between frames" `Quick
            test_fd_poll_abort;
          Alcotest.test_case "write deadline evicts a dead reader" `Quick
            test_fd_write_deadline_dead_reader;
          Alcotest.test_case "roundtrip" `Quick test_fd_roundtrip ] );
      ( "protocol",
        [ QCheck_alcotest.to_alcotest prop_request_roundtrip;
          QCheck_alcotest.to_alcotest prop_response_roundtrip;
          QCheck_alcotest.to_alcotest prop_framed_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_decode_rejects_garbage;
          Alcotest.test_case "sample wire compat" `Quick
            test_sample_wire_compat ] );
      ( "daemon",
        [ Alcotest.test_case "concurrent clients, exact dedup" `Quick
            test_farm_matches_sequential_exactly_once;
          Alcotest.test_case "restart serves from journal" `Quick
            test_farm_restart_serves_from_journal;
          Alcotest.test_case "garbage rejected loudly" `Quick
            test_daemon_rejects_garbage_loudly;
          Alcotest.test_case "inadmissible grids rejected" `Quick
            test_daemon_rejects_inadmissible_grids;
          Alcotest.test_case "sampled cells keyed apart from full" `Quick
            test_daemon_sampled_cells_distinct ] );
      ( "lifecycle",
        [ Alcotest.test_case "over-cap connections shed" `Quick
            test_server_sheds_over_cap;
          Alcotest.test_case "saturated pool sheds grids" `Quick
            test_server_sheds_on_saturated_pool;
          Alcotest.test_case "long-lived connection served" `Quick
            test_server_long_lived_connection;
          Alcotest.test_case "slowloris evicted, healthy client served" `Quick
            test_server_evicts_slowloris_healthy_unblocked;
          Alcotest.test_case "dead reader evicted mid-stream" `Quick
            test_server_evicts_dead_reader;
          Alcotest.test_case "graceful drain" `Quick test_server_drain_graceful ] );
      ( "proxy",
        [ Alcotest.test_case "empty plan is a transparent wire" `Quick
            test_proxy_passthrough_byte_identical;
          Alcotest.test_case "drop mid-stream, reconnect, exactly once" `Quick
            (test_proxy_reconnect_exactly_once Resil.Fault_plan.Throw);
          Alcotest.test_case "truncate mid-stream, reconnect, exactly once"
            `Quick
            (test_proxy_reconnect_exactly_once Resil.Fault_plan.Truncate);
          Alcotest.test_case "corrupt mid-stream, reconnect, exactly once"
            `Quick
            (test_proxy_reconnect_exactly_once Resil.Fault_plan.Corrupt) ] ) ]
