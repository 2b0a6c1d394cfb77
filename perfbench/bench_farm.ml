(* farm-mixed: an in-process Farm_server with a journal, its memo filled
   at set-up with three small catalog grids, then a closed loop on
   [connections] Farm_client connection(s): 19 of every 20 requests re-read a
   cached grid (memo reads); the 20th, at a seeded place in the block,
   asks for a fresh one-cell grid at a seeded, never-used eval budget
   (computed and journalled). *)

open Perfbench_kit
open Bench_common

let workload = "farm-mixed"
let eval_instrs = 20_000
let train_instrs = 15_000
let block = 20

(* Pool workers and client connections: at most the host's cores, and
   at most two, so figures from bigger hosts stay comparable.  One of
   each was tried: the fresh-cell and tail figures then spread more
   between runs (0.25 and 0.40), not less. *)
let workers = max 1 (min 2 (Domain.recommended_domain_count ()))
let connections = workers

(* Apps cheap to build, so set-up stays short and repeatable. *)
let cached_apps = [ "cactus"; "deepsjeng"; "gcc"; "lbm"; "mcf"; "nab"; "namd"; "imgdnn" ]

(* Fresh cells: one app and tiny budgets, so every fresh request costs
   about the same (building the workload dominates) and the Runner memo
   entries they leave behind stay small next to the cached grids. *)
let fresh_app = "nab"
let fresh_train_instrs = 2_000

let col label variant = { Grid.label; variant; threshold = None; window = None }

let cached_grids =
  [ { Grid.fig4 with Grid.names = cached_apps };
    { Grid.fig7 with
      Grid.names = cached_apps;
      columns = [ col "CRISP" "crisp"; col "IBDA-8K" "ibda-8k" ] };
    { Grid.fig11 with Grid.names = cached_apps } ]

let fresh_grid app =
  { Grid.tag = "fresh"; title = "fresh cell"; with_mean = false; metric = Grid.Gain;
    columns = [ col "CRISP" "crisp" ]; names = [ app ] }

(* The rows the figure code would compute locally (memo hits once the
   farm has computed them in this process). *)
let local_rows (spec : Grid.spec) ~eval_instrs ~train_instrs =
  List.map
    (fun name ->
      ( name,
        List.map
          (fun c ->
            Grid.cell_value ~eval_instrs ~train_instrs ~name ~metric:spec.Grid.metric c)
          spec.Grid.columns ))
    spec.Grid.names

let same_rows a b =
  List.length a = List.length b
  && List.for_all2
       (fun (n, xs) (m, ys) ->
         n = m && List.length xs = List.length ys && List.for_all2 Tally.same_float xs ys)
       a b

type farm = {
  dir : string;
  pool : Exec.Pool.t;
  srv : Farm_server.t;
  thread : Thread.t;
  clients : Farm_client.t array;
  connect_ms : float list;
  expected : (Grid.spec * (string * float list) list) list;
  used : (int, unit) Hashtbl.t array;  (** fresh budgets drawn, per client *)
}

let rec connect ~socket tries =
  match Farm_client.connect ~socket () with
  | c -> c
  | exception Farm_client.Disconnected _ when tries > 0 ->
    Thread.delay 0.01;
    connect ~socket (tries - 1)

let counter = ref 0

let setup ~tally () =
  Runner.clear_cache ();
  incr counter;
  let dir =
    Filename.concat out_dir (Printf.sprintf "farm-%d-%d" (Unix.getpid ()) !counter)
  in
  rm_rf dir;
  mkdir_p dir;
  let socket = Filename.concat dir "s" in
  let pool = Exec.Pool.create ~workers () in
  let srv =
    Farm_server.create
      { Farm_server.socket; pool; policy = Resil.Supervise.default_policy;
        journal_dir = Some dir; verbose = false; limits = Farm_server.default_limits }
  in
  let thread = Thread.create Farm_server.run srv in
  let timed_connect () =
    let t0 = now () in
    let c = connect ~socket 500 in
    (c, (now () -. t0) *. 1e3)
  in
  let conns = Array.init connections (fun _ -> timed_connect ()) in
  let clients = Array.map fst conns in
  let expected =
    List.map
      (fun spec ->
        let r = Farm_client.run_grid clients.(0) ~spec ~eval_instrs ~train_instrs () in
        let rows = local_rows spec ~eval_instrs ~train_instrs in
        Tally.check tally ~what:("set-up grid " ^ spec.Grid.tag ^ " differs from local")
          (r.Farm_client.degraded = [] && same_rows r.Farm_client.rows rows);
        (spec, rows))
      cached_grids
  in
  { dir; pool; srv; thread; clients; connect_ms = Array.to_list (Array.map snd conns);
    expected; used = Array.init connections (fun _ -> Hashtbl.create 64) }

let teardown f =
  Array.iter (fun c -> try Farm_client.close c with _ -> ()) f.clients;
  Farm_server.stop f.srv;
  Thread.join f.thread;
  Exec.Pool.shutdown f.pool;
  rm_rf f.dir

type request = {
  fresh : (string * int) option;  (** app and eval budget of a fresh cell *)
  rtt_ms : float;
  summary : Farm_protocol.summary option;  (** [None] when the request failed *)
}

(* Fresh budgets: client [i] of [n] draws budgets congruent to [i]
   modulo [n] and never repeats one, so no two requests of a run share
   a budget and every fresh request computes. *)
let fresh_budget ~used ~rng ~client =
  let rec draw () =
    let b = 2_000 + (connections * Random.State.int rng 1_000) + client in
    if Hashtbl.mem used b then draw ()
    else begin
      Hashtbl.replace used b ();
      b
    end
  in
  draw ()

(* Holds every client between two requests while the main thread runs a
   host probe, so the probe never shares the host with farm work. *)
type gate = {
  m : Mutex.t;
  c : Condition.t;
  mutable closed : bool;
  mutable parked : int;
}

let gate () = { m = Mutex.create (); c = Condition.create (); closed = false; parked = 0 }

let pass_gate g =
  Mutex.protect g.m (fun () ->
      if g.closed then begin
        g.parked <- g.parked + 1;
        Condition.broadcast g.c;
        while g.closed do
          Condition.wait g.c g.m
        done;
        g.parked <- g.parked - 1
      end)

(* Close the gate, wait for every client to park, probe, reopen; returns
   how long the clients were held after the last one parked. *)
let probe_behind g ~clients =
  Mutex.protect g.m (fun () ->
      g.closed <- true;
      while g.parked < clients do
        Condition.wait g.c g.m
      done);
  let t0 = now () in
  Probe.run host;
  let held = now () -. t0 in
  Mutex.protect g.m (fun () ->
      g.closed <- false;
      Condition.broadcast g.c);
  held

(* One client's closed loop: the next request goes out when the previous
   reply is complete.  Stops when [stop] is set. *)
let client_loop ~f ~tally ~seed ~client ~gate ~stop ~reads =
  let rng = Random.State.make [| seed; client |] in
  let used = f.used.(client) in
  let conn = ref f.clients.(client) in
  let grids = Array.of_list f.expected in
  let socket = Filename.concat f.dir "s" in
  let out = ref [] in
  let n = ref 0 in
  let fresh_at = ref 0 in
  while pass_gate gate; not (Atomic.get stop) do
    if !n mod block = 0 then fresh_at := !n + Random.State.int rng block;
    let fresh =
      if !n = !fresh_at then Some (fresh_app, fresh_budget ~used ~rng ~client) else None
    in
    incr n;
    let id = Printf.sprintf "c%d-%d" client !n in
    let spec, eval_instrs, train_instrs, expected =
      match fresh with
      | Some (app, budget) -> (fresh_grid app, budget, fresh_train_instrs, None)
      | None ->
        let spec, rows = grids.(Random.State.int rng (Array.length grids)) in
        (spec, eval_instrs, train_instrs, Some rows)
    in
    let t0 = now () in
    let outcome =
      try
        Ok
          (Span.record ~tag:id "Farm_client.run_grid" (fun _ ->
               Farm_client.run_grid !conn ~id ~spec ~eval_instrs ~train_instrs ()))
      with
      | Farm_client.Disconnected e -> Error ("disconnected: " ^ e)
      | Farm_client.Overloaded ms -> Error (Printf.sprintf "overloaded (retry %d ms)" ms)
      | Farm_client.Farm_error e -> Error ("farm error: " ^ e)
    in
    let rtt_ms = (now () -. t0) *. 1e3 in
    let summary =
      match outcome with
      | Error e ->
        Tally.fail tally ~what:(id ^ ": " ^ e);
        (try Farm_client.close !conn with _ -> ());
        conn := connect ~socket 500;
        None
      | Ok r ->
        let s = r.Farm_client.summary in
        let ok, what =
          match expected with
          | Some rows ->
            (* A read must be served from the memo, bit-identical. *)
            ( r.Farm_client.degraded = [] && s.Farm_protocol.computed = 0
              && same_rows r.Farm_client.rows rows,
              Printf.sprintf "%s: cached %s read computed %d cell(s) or differs" id spec.Grid.tag
                s.Farm_protocol.computed )
          | None ->
            ( r.Farm_client.degraded = []
              && same_rows r.Farm_client.rows (local_rows spec ~eval_instrs ~train_instrs),
              Printf.sprintf "%s: fresh %s@%d differs from local" id
                (List.hd spec.Grid.names) eval_instrs )
        in
        Tally.check tally ~what ok;
        Some s
    in
    if fresh = None then Atomic.incr reads;
    out := { fresh; rtt_ms; summary } :: !out
  done;
  f.clients.(client) <- !conn;
  List.rev !out

(* Seconds of loop between two host probes. *)
let probe_every_s = 2.

(* Run the closed loop on every client for [seconds], and on until the
   cached reads suffice for a p99 with ten samples beyond it.  Every
   [probe_every_s] the clients are held for a host probe; the wall time
   returned leaves the probes out. *)
let closed_loop ~f ~tally ~seed ~seconds =
  let t0 = now () in
  let reads = Atomic.make 0 in
  let needed = Pct.samples_needed 99. in
  let gate = gate () in
  let stop = Atomic.make false in
  let results = Array.make connections [] in
  let threads =
    Array.init connections (fun client ->
        Thread.create
          (fun () ->
            results.(client) <-
              client_loop ~f ~tally ~seed ~client ~gate ~stop ~reads)
          ())
  in
  let rec drive held =
    let elapsed = now () -. t0 -. held in
    if (elapsed >= seconds && Atomic.get reads >= needed) || elapsed >= 4. *. seconds then held
    else begin
      Thread.delay (Float.min probe_every_s (Float.max 0.01 (seconds -. elapsed)));
      drive (held +. probe_behind gate ~clients:connections)
    end
  in
  let held = drive 0. in
  Atomic.set stop true;
  Array.iter Thread.join threads;
  let wall = now () -. t0 -. held in
  (Array.to_list results |> List.concat, wall)

let split requests =
  ( List.filter_map (fun r -> if r.fresh = None then Some r.rtt_ms else None) requests,
    List.filter_map (fun r -> if r.fresh <> None then Some r.rtt_ms else None) requests )

let e2e_of ~setup_s (requests, wall) =
  let reads, fresh = split requests in
  let rate = float_of_int (List.length requests) /. wall in
  let p50 = Pct.median reads in
  let p99 = Option.value ~default:Float.nan (Pct.percentile_opt reads 99.) in
  let fresh_p50 = if fresh = [] then Float.nan else Pct.median fresh in
  let rss = peak_rss_mb () in
  ( [ m "setup_s" "s" setup_s; m "peak_rss_mb" "MB" rss; m "ops_per_s" "1/s" rate;
      m "op_p50_ms" "ms" p50; m "op_tail_ms" "ms" p99; m "compute_p50_ms" "ms" fresh_p50 ],
    [ m "setup_s" "s" setup_s; m "peak_rss_mb" "MB" rss;
      m "clients" "count" (float_of_int connections); m "req_per_s" "1/s" rate;
      m (Printf.sprintf "rtt_p50_ms (n=%d reads)" (List.length reads)) "ms" p50;
      m "rtt_p99_ms" "ms" p99;
      m (Printf.sprintf "fresh_rtt_p50_ms (n=%d fresh)" (List.length fresh)) "ms" fresh_p50 ] )

let fresh_jobs requests =
  List.filter_map
    (fun r ->
      Option.map
        (fun (app, budget) ->
          let crisp = Result.get_ok (Grid.variant_of_column (col "CRISP" "crisp")) in
          List.map
            (fun (kind, variant) ->
              { name = app; cfg = Cpu_config.skylake; variant; eval_instrs = budget;
                train_instrs = fresh_train_instrs; tag = Printf.sprintf "%s@%d/%s" app budget kind })
            [ ("ooo", Runner.Ooo); ("crisp", crisp) ])
        r.fresh)
    requests
  |> List.concat

let run ~seconds ~seed ~traced ~tally ~pinned ~pin =
  let f, setup_s = timed_setup ~reps:3 ~setup:(setup ~tally) ~teardown in
  Fun.protect ~finally:(fun () -> teardown f) @@ fun () ->
  List.iter
    (fun ((spec : Grid.spec), rows) ->
      List.iter
        (fun (name, vs) ->
          List.iteri
            (fun j v ->
              let key = Printf.sprintf "%s/%s/%d" spec.Grid.tag name j in
              if pin then Tally.Pinned.set pinned ~workload key v
              else Tally.expect tally pinned ~workload key v)
            vs)
        rows)
    f.expected;
  let memo0 = Runner.cache_stats () in
  let untraced = closed_loop ~f ~tally ~seed ~seconds in
  let memo1 = Runner.cache_stats () in
  let e2e, shown = e2e_of ~setup_s untraced in
  if not traced then { e2e; shown; layers = [] }
  else begin
    let stolen0 = (Exec.Pool.stats f.pool).Exec.Pool.stolen in
    Acc.reset ();
    Span.set_enabled true;
    let ((traced_reqs, _) as traced_loop) =
      closed_loop ~f ~tally ~seed ~seconds:(seconds /. 2.)
    in
    (* Replay the first 4 fresh cells the farm just computed (8
       evaluations) on its pool, and hold them to the farm's own Runner
       results. *)
    let jobs = List.filteri (fun i _ -> i < 8) (fresh_jobs traced_reqs) in
    let replayed =
      Exec.Pool.map_list f.pool (fun job -> (job.tag, replay ~parent:Span.no_parent job, evaluate job)) jobs
    in
    Span.set_enabled false;
    drift_guard replayed;
    let sum field =
      float_of_int
        (List.fold_left
           (fun a r -> match r.summary with Some s -> a + field s | None -> a)
           0 traced_reqs)
    in
    let rate (reqs, wall) = float_of_int (List.length reqs) /. wall in
    let fresh_budget_instrs =
      match fresh_jobs traced_reqs with j :: _ -> j.eval_instrs | [] -> eval_instrs
    in
    let extra =
      [ m "trace.bytes_per_instr" "B"
          (bytes_per_instr ~input:Workload.Ref ~instrs:fresh_budget_instrs fresh_app);
        m "core.memo_hits" "count" (float_of_int (memo1.Exec.Memo.hits - memo0.Exec.Memo.hits));
        m "core.memo_misses" "count"
          (float_of_int (memo1.Exec.Memo.misses - memo0.Exec.Memo.misses));
        m "exec.stolen" "count"
          (float_of_int ((Exec.Pool.stats f.pool).Exec.Pool.stolen - stolen0));
        m "farm.connect_ms" "ms" (Pct.median f.connect_ms);
        m "farm.memo_hits" "count" (sum (fun s -> s.Farm_protocol.memo_hits));
        m "farm.computed" "count" (sum (fun s -> s.Farm_protocol.computed));
        m "farm.journal_cells" "count"
          (float_of_int (Farm_server.stats f.srv).Farm_protocol.journal_cells);
        m "bench.trace_overhead_pct" "%"
          (overhead_pct ~untraced:(rate untraced) ~traced:(rate traced_loop)) ]
    in
    { e2e; shown; layers = layers ~spans:(Span.spans ()) extra }
  end
