(* Tests for the parallel execution subsystem: the domain pool, futures,
   the memo table's in-flight deduplication, and the determinism of the
   parallel experiment grids against the sequential path. *)

open Exec

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ---------------- Future ---------------- *)

let test_future_basics () =
  let fut = Future.create () in
  check bool "pending" true (Future.poll fut = None);
  Future.fulfill fut 41;
  check int "await" 41 (Future.await fut);
  check bool "double resolve rejected" true
    (match Future.fulfill fut 0 with
    | () -> false
    | exception Invalid_argument _ -> true);
  check bool "poll after resolve" true (Future.poll fut = Some (Ok 41));
  check int "of_value" 42 (Future.await (Future.of_value 42))

let test_future_failure () =
  let fut = Future.create () in
  Future.fail fut (Failure "inner") (Printexc.get_callstack 0);
  check bool "await re-raises" true
    (match Future.await fut with
    | _ -> false
    | exception Failure m -> m = "inner");
  check bool "poll reports the failure" true
    (match Future.poll fut with Some (Error (Failure m)) -> m = "inner" | _ -> false)

(* Set-vs-await race: many domains race to fulfill one future while many
   others are already blocked in [await].  Exactly one fulfill wins (the
   rest observe [Invalid_argument]), and every awaiter sees the winning
   value — write-once semantics under contention. *)
let test_future_set_vs_await_race () =
  let rounds = 200 and setters = 4 and awaiters = 4 in
  for _ = 1 to rounds do
    let fut = Future.create () in
    let go = Atomic.make false in
    let awaiter_domains =
      List.init awaiters (fun _ -> Domain.spawn (fun () -> Future.await fut))
    in
    let setter_domains =
      List.init setters (fun value ->
          Domain.spawn (fun () ->
              while not (Atomic.get go) do
                Domain.cpu_relax ()
              done;
              match Future.fulfill fut value with
              | () -> Some value
              | exception Invalid_argument _ -> None))
    in
    Atomic.set go true;
    let winners = List.filter_map Domain.join setter_domains in
    let observed = List.map Domain.join awaiter_domains in
    (match winners with
    | [ winner ] ->
      List.iter
        (fun v -> check int "awaiter sees the winning value" winner v)
        observed
    | ws -> Alcotest.failf "expected exactly one winning fulfill, got %d" (List.length ws));
    check bool "future resolved" true (Future.poll fut <> None)
  done

(* ---------------- Pool ---------------- *)

let test_pool_exactly_once_many_submitters () =
  let pool = Pool.create ~workers:4 () in
  let total = 4_000 and submitters = 4 in
  let runs = Array.init total (fun _ -> Atomic.make 0) in
  let chunk = total / submitters in
  let submitter s =
    Domain.spawn (fun () ->
        List.init chunk (fun k ->
            let i = (s * chunk) + k in
            Pool.submit pool (fun () ->
                Atomic.incr runs.(i);
                i)))
  in
  let futures =
    List.init submitters submitter |> List.concat_map Domain.join
  in
  let values = List.map (Pool.await pool) futures in
  Pool.shutdown pool;
  check int "all futures resolved" total (List.length values);
  let once = ref true in
  Array.iter (fun a -> if Atomic.get a <> 1 then once := false) runs;
  check bool "every job ran exactly once" true !once

let test_pool_exception_surfaces_at_await () =
  let pool = Pool.create ~workers:2 () in
  let bad = Pool.submit pool (fun () -> failwith "job blew up") in
  let good = Pool.submit pool (fun () -> 7) in
  check bool "exception re-raised at await" true
    (match Pool.await pool bad with
    | _ -> false
    | exception Failure m -> m = "job blew up");
  check int "other jobs unaffected" 7 (Pool.await pool good);
  Pool.shutdown pool

(* A job that awaits a sub-job of its own pool would deadlock a saturated
   pool (here: the only worker is the one waiting), so [Pool.await] from
   inside a job of the same pool raises instead of blocking. *)
let test_pool_await_from_job_raises () =
  let pool = Pool.create ~workers:1 () in
  let outer =
    Pool.submit pool (fun () ->
        let sub = Pool.submit pool (fun () -> 1) in
        match Pool.await pool sub with
        | _ -> false
        | exception Invalid_argument _ -> true)
  in
  check bool "await from a job of the same pool raises" true (Pool.await pool outer);
  Pool.shutdown pool

(* One worker takes jobs in submission order: the FIFO start order that
   long-pole-first row scheduling relies on. *)
let test_pool_fifo_start_order () =
  let pool = Pool.create ~workers:1 () in
  let total = 50 in
  let order = Array.make total (-1) and next = Atomic.make 0 in
  let futs =
    List.init total (fun i ->
        Pool.submit pool (fun () -> order.(Atomic.fetch_and_add next 1) <- i))
  in
  List.iter (Pool.await pool) futs;
  Pool.shutdown pool;
  check bool "jobs started in submission order" true (order = Array.init total Fun.id)

(* With every worker held on a gate, the gauges are exact: all workers
   running, every other job queued.  The farm's max_queued admission
   reads [queued]. *)
let test_pool_stats_exact_gauges () =
  let workers = 2 and queued = 7 in
  let pool = Pool.create ~workers () in
  let gate = Atomic.make false and started = Atomic.make 0 in
  let blockers =
    List.init workers (fun _ ->
        Pool.submit pool (fun () ->
            Atomic.incr started;
            while not (Atomic.get gate) do
              Domain.cpu_relax ()
            done))
  in
  while Atomic.get started < workers do
    Domain.cpu_relax ()
  done;
  let rest = List.init queued (fun _ -> Pool.submit pool ignore) in
  let s = Pool.stats pool in
  Atomic.set gate true;
  List.iter (Pool.await pool) (blockers @ rest);
  Pool.shutdown pool;
  check int "workers" workers s.Pool.workers;
  check int "queued" queued s.Pool.queued;
  check int "running" workers s.Pool.running;
  check int "stolen is always 0" 0 s.Pool.stolen

let test_pool_sequential_escape_hatch () =
  let pool = Pool.sequential in
  let order = ref [] in
  let futs = List.init 5 (fun i -> Pool.submit pool (fun () -> order := i :: !order; i)) in
  check bool "runs inline at submission, in order" true (List.rev !order = [ 0; 1; 2; 3; 4 ]);
  check bool "values" true (List.map (Pool.await pool) futs = [ 0; 1; 2; 3; 4 ]);
  check int "parallelism" 1 (Pool.parallelism pool);
  Pool.shutdown pool

let test_pool_shutdown_rejects_submit () =
  let pool = Pool.create ~workers:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* idempotent *)
  check bool "submit after shutdown raises" true
    (match Pool.submit pool (fun () -> 0) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Abort shutdown (~drain:false): queued jobs that never started must
   fail their futures with [Shut_down] so awaiters raise cleanly instead
   of deadlocking.  Both workers are parked on a gate while the jobs
   queue up, the aborting shutdown runs from another domain, and only
   then does the gate open. *)
let test_pool_abort_shutdown_fails_queued_jobs () =
  let pool = Pool.create ~workers:2 () in
  let gate = Atomic.make false in
  let started = Atomic.make 0 in
  let blockers =
    List.init 2 (fun _ ->
        Pool.submit pool (fun () ->
            Atomic.incr started;
            while not (Atomic.get gate) do
              Domain.cpu_relax ()
            done;
            0))
  in
  (* Both workers are provably inside a blocker before anything else is
     queued, so no queued job can start before the gate opens. *)
  while Atomic.get started < 2 do
    Domain.cpu_relax ()
  done;
  let queued = List.init 64 (fun i -> Pool.submit pool (fun () -> i)) in
  let stopper = Domain.spawn (fun () -> Pool.shutdown ~drain:false pool) in
  (* An abort-shutdown sets the abort flag before closing the queue, so once submission is refused the flag is visibly set; only
     then release the workers to drain (and discard) the queue. *)
  let rec await_close () =
    match Pool.submit pool (fun () -> -1) with
    | (_ : int Exec.Future.t) ->
      Domain.cpu_relax ();
      await_close ()
    | exception Invalid_argument _ -> ()
  in
  await_close ();
  Atomic.set gate true;
  let aborted = ref 0 and ran = ref 0 in
  List.iter
    (fun fut ->
      match Pool.await pool fut with
      | _ -> incr ran
      | exception Pool.Shut_down -> incr aborted)
    queued;
  Domain.join stopper;
  check int "every queued job resolved one way" 64 (!aborted + !ran);
  check bool "abort flag was set before the gate opened" true (!aborted = 64);
  check bool "started jobs still complete" true
    (List.for_all (fun f -> Pool.await pool f = 0) blockers);
  (* Shutdown stays idempotent after an abort. *)
  Pool.shutdown pool;
  Pool.shutdown ~drain:false pool

(* Several domains race to shut the same pool down while jobs are in
   flight: exactly one performs the join, the others wait for it, and
   every submitted job still resolves (drain semantics). *)
let test_pool_concurrent_shutdown () =
  for _ = 1 to 20 do
    let pool = Pool.create ~workers:2 () in
    let futs = List.init 200 (fun i -> Pool.submit pool (fun () -> i)) in
    let shutters =
      List.init 4 (fun _ -> Domain.spawn (fun () -> Pool.shutdown pool))
    in
    Pool.shutdown pool;
    List.iter Domain.join shutters;
    check bool "all jobs completed despite racing shutdowns" true
      (List.mapi (fun i f -> Pool.await pool f = i) futs |> List.for_all Fun.id)
  done

(* Shutdown-during-await stress: the awaiting domain must come back with
   either the value or [Shut_down] — never hang — whichever way the race
   between job execution and the aborting shutdown goes. *)
let test_pool_shutdown_during_await_stress () =
  for _ = 1 to 50 do
    let pool = Pool.create ~workers:2 () in
    let futs =
      List.init 32 (fun i ->
          Pool.submit pool (fun () ->
              if i land 3 = 0 then Domain.cpu_relax ();
              i))
    in
    let stopper = Domain.spawn (fun () -> Pool.shutdown ~drain:false pool) in
    List.iteri
      (fun i fut ->
        match Pool.await pool fut with
        | v -> check int "value intact when the job won the race" i v
        | exception Pool.Shut_down -> ())
      futs;
    Domain.join stopper
  done

let test_pool_map_list () =
  let pool = Pool.create ~workers:3 () in
  let squares = Pool.map_list pool (fun x -> x * x) (List.init 100 Fun.id) in
  Pool.shutdown pool;
  check bool "map_list keeps order" true
    (squares = List.init 100 (fun x -> x * x))

(* ---------------- Memo ---------------- *)

let test_memo_in_flight_dedup () =
  let pool = Pool.create ~workers:4 () in
  let memo = Exec.Memo.create () in
  let runs = Atomic.make 0 in
  let compute () =
    Atomic.incr runs;
    (* Long enough that all waiters pile onto the in-flight future. *)
    Unix.sleepf 0.05;
    1234
  in
  let futs =
    List.init 16 (fun _ ->
        Pool.submit pool (fun () -> Exec.Memo.find_or_run memo "baseline" compute))
  in
  let values = List.map (Pool.await pool) futs in
  Pool.shutdown pool;
  check bool "all waiters got the value" true (List.for_all (( = ) 1234) values);
  check int "computation ran exactly once" 1 (Atomic.get runs);
  check int "table holds one entry" 1 (Exec.Memo.length memo)

let test_memo_failure_not_poisoning () =
  let memo = Exec.Memo.create () in
  let attempts = Atomic.make 0 in
  let flaky () =
    if Atomic.fetch_and_add attempts 1 = 0 then failwith "transient" else 5
  in
  check bool "first run raises" true
    (match Exec.Memo.find_or_run memo "k" flaky with
    | _ -> false
    | exception Failure _ -> true);
  check int "retry recomputes and caches" 5 (Exec.Memo.find_or_run memo "k" flaky);
  check int "cached thereafter" 5 (Exec.Memo.find_or_run memo "k" flaky);
  check int "two attempts total" 2 (Atomic.get attempts);
  Exec.Memo.clear memo;
  check int "clear empties" 0 (Exec.Memo.length memo)

(* ---------------- Determinism of the experiment grids ---------------- *)

(* A fig7-shaped grid (apps x variants, sharing OOO baselines through the
   Runner memo) must produce identical statistics through pools of 1, 2
   and 8 workers as through the sequential path — i.e. neither Cpu_core
   nor Workload.trace hides shared mutable state that parallel execution
   could perturb.  Each app runs at two RS/ROB windows, so one row's six
   cells request one eval trace and its two CRISP cells one tag map at
   the same time: Runner's layer memos must build each exactly once and
   keep at most one eval trace. *)
let test_grid_determinism_across_worker_counts () =
  let ctx =
    { Experiments.default with
      Experiments.sizes = { Experiments.eval_instrs = 8_000; train_instrs = 6_000 } }
  in
  let names = [ "mcf"; "namd"; "fotonik" ] in
  let cfgs =
    List.map
      (fun (rs, rob) -> Cpu_config.with_window ~rs ~rob Cpu_config.skylake)
      [ (64, 180); (144, 336) ]
  in
  let variants = [ Runner.Ooo; Runner.crisp_default; Runner.Ibda Ibda.ist_8k ] in
  let cells = List.concat_map (fun cfg -> List.map (fun v -> (cfg, v)) variants) cfgs in
  let grid { Experiments.sizes; pool; _ } =
    List.map
      (fun name ->
        Pool.map_list pool
          (fun (cfg, v) ->
            Runner.evaluate ~cfg ~eval_instrs:sizes.Experiments.eval_instrs
              ~train_instrs:sizes.Experiments.train_instrs ~name v)
          cells)
      names
  in
  let check_empty what =
    let { Runner.fdo; eval_traces } = Runner.layer_stats () in
    check int (what ^ ": outcome memo empty") 0 (Runner.cache_stats ()).Exec.Memo.entries;
    check int (what ^ ": tag-map memo empty") 0 fdo.Exec.Memo.entries;
    check int (what ^ ": eval-trace memo empty") 0 eval_traces.Exec.Memo.entries
  in
  Runner.clear_cache ();
  check_empty "before the grids";
  let reference = grid ctx in
  let stats_of rows = List.map (List.map (fun o -> o.Runner.stats)) rows in
  List.iter
    (fun workers ->
      let pool = Pool.create ~workers () in
      Runner.clear_cache ();
      let before = Runner.layer_stats () in
      let parallel = grid { ctx with Experiments.pool } in
      let after = Runner.layer_stats () in
      Pool.shutdown pool;
      let label = Printf.sprintf "%d workers" workers in
      check bool ("stats identical with " ^ label) true
        (stats_of parallel = stats_of reference);
      check int ("one FDO run per distinct train input, " ^ label) (List.length names)
        (after.Runner.fdo.Exec.Memo.misses - before.Runner.fdo.Exec.Memo.misses);
      check int ("one eval-trace build per row, " ^ label) (List.length names)
        (after.Runner.eval_traces.Exec.Memo.misses
        - before.Runner.eval_traces.Exec.Memo.misses);
      check bool ("at most one eval trace kept, " ^ label) true
        (after.Runner.eval_traces.Exec.Memo.entries <= 1))
    [ 1; 2; 8 ];
  (* The farm's fresh-cell pattern: a stream of never-repeated budgets
     must not leave a trace behind per budget. *)
  let pool = Pool.create ~workers:2 () in
  ignore
    (Pool.map_list pool
       (fun i ->
         Runner.evaluate ~eval_instrs:(2_000 + (37 * i)) ~train_instrs:2_000 ~name:"nab"
           Runner.Ooo)
       (List.init 40 Fun.id));
  Pool.shutdown pool;
  check bool "at most one eval trace kept after 40 fresh nab budgets" true
    ((Runner.layer_stats ()).Runner.eval_traces.Exec.Memo.entries <= 1);
  Runner.clear_cache ();
  check_empty "after clear_cache"

let () =
  Alcotest.run "exec"
    [ ( "future",
        [ Alcotest.test_case "basics" `Quick test_future_basics;
          Alcotest.test_case "failure" `Quick test_future_failure;
          Alcotest.test_case "set-vs-await-race" `Slow
            test_future_set_vs_await_race ] );
      ( "pool",
        [ Alcotest.test_case "exactly-once-many-submitters" `Slow
            test_pool_exactly_once_many_submitters;
          Alcotest.test_case "exception-at-await" `Quick
            test_pool_exception_surfaces_at_await;
          Alcotest.test_case "await-from-job-raises" `Quick
            test_pool_await_from_job_raises;
          Alcotest.test_case "fifo-start-order" `Quick test_pool_fifo_start_order;
          Alcotest.test_case "stats-exact-gauges" `Quick test_pool_stats_exact_gauges;
          Alcotest.test_case "sequential-escape-hatch" `Quick
            test_pool_sequential_escape_hatch;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown_rejects_submit;
          Alcotest.test_case "abort-shutdown-fails-queued" `Quick
            test_pool_abort_shutdown_fails_queued_jobs;
          Alcotest.test_case "concurrent-shutdown" `Slow
            test_pool_concurrent_shutdown;
          Alcotest.test_case "shutdown-during-await-stress" `Slow
            test_pool_shutdown_during_await_stress;
          Alcotest.test_case "map_list" `Quick test_pool_map_list ] );
      ( "memo",
        [ Alcotest.test_case "in-flight-dedup" `Slow test_memo_in_flight_dedup;
          Alcotest.test_case "failure-not-poisoning" `Quick
            test_memo_failure_not_poisoning ] );
      ( "determinism",
        [ Alcotest.test_case "grid-1-2-8-workers" `Slow
            test_grid_determinism_across_worker_counts ] ) ]
