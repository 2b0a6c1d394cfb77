(* Tests for the resilience layer: deterministic backoff, fault plans,
   supervised jobs with timeout/retry, the checksummed checkpoint
   journal, the cell store, and the end-to-end property that a faulted
   figure grid is byte-identical across worker counts with every
   divergence reported. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let floats = Alcotest.float 1e-12

(* Every test leaves the global fault-injection state, the resilience
   log and the Runner memo clean, whatever happens. *)
let isolated f () =
  Fun.protect f ~finally:(fun () ->
      Resil.Fault_plan.disarm ();
      Resil.Log.clear ();
      Runner.clear_cache ())

(* ---------------- Clock / Backoff ---------------- *)

let test_clock_monotone () =
  let rec go n last =
    if n > 0 then begin
      let t = Resil.Clock.now () in
      check bool "non-decreasing" true (t >= last);
      go (n - 1) t
    end
  in
  go 1000 (Resil.Clock.now ())

let test_backoff_deterministic () =
  let d1 = Resil.Backoff.delay ~seed:7 ~ident:"fig7/mcf/0" ~attempt:2 in
  let d2 = Resil.Backoff.delay ~seed:7 ~ident:"fig7/mcf/0" ~attempt:2 in
  check floats "same inputs, same delay" d1 d2;
  let other = Resil.Backoff.delay ~seed:8 ~ident:"fig7/mcf/0" ~attempt:2 in
  check bool "seed changes the jitter" true (Float.abs (d1 -. other) > 1e-9);
  let sched =
    List.init 12 (fun attempt -> Resil.Backoff.delay ~seed:7 ~ident:"x" ~attempt)
  in
  (* the 1 s cap, jittered *)
  let bound = 1.0 *. (1. +. 0.25) in
  List.iter
    (fun d -> check bool "0 <= delay <= jittered cap" true (d >= 0. && d <= bound))
    sched;
  (* the nominal component grows until the cap *)
  check bool "later attempts back off more" true
    (List.nth sched 3 > List.nth sched 0)

(* ---------------- Fault_plan ---------------- *)

let compute = Resil.Fault_plan.compute_sites
let wire = Resil.Fault_plan.wire_sites

let parse_ok ?(sites = compute) spec =
  match Resil.Fault_plan.parse_spec ~sites spec with
  | Ok t -> t
  | Error msg -> Alcotest.failf "spec %S rejected: %s" spec msg

let test_parse_spec () =
  let open Resil.Fault_plan in
  (match parse_ok "runner.run:crash+1@mcf" with
  | { site = "runner.run"; selector = Substring "mcf"; count = From 1;
      action = Throw } -> ()
  | _ -> Alcotest.fail "crash+1@mcf misparsed");
  (match parse_ok "journal.write:corrupt#1" with
  | { site = "journal.write"; selector = Any; count = Nth 1; action = Corrupt }
    -> ()
  | _ -> Alcotest.fail "corrupt#1 misparsed");
  (* count and selector accepted in either order *)
  (match parse_ok "runner.run:stall=2@mcf#1" with
  | { site = "runner.run"; selector = Substring "mcf"; count = Nth 1;
      action = Stall s } ->
    check floats "stall seconds" 2.0 s
  | _ -> Alcotest.fail "stall=2@mcf#1 misparsed");
  (match parse_ok "runner.run:stall=2#1@mcf" with
  | { selector = Substring "mcf"; count = Nth 1; action = Stall _; _ } -> ()
  | _ -> Alcotest.fail "stall=2#1@mcf misparsed");
  (match parse_ok "pool.job:stall" with
  | { action = Stall s; _ } -> check floats "bare stall is 1s" 1.0 s
  | _ -> Alcotest.fail "bare stall misparsed");
  (match parse_ok ~sites:wire "wire.down:crash#2" with
  | { site = "wire.down"; selector = Any; count = Nth 2; action = Throw } -> ()
  | _ -> Alcotest.fail "wire.down:crash#2 misparsed");
  (match parse_ok ~sites:wire "wire.up:corrupt#5" with
  | { site = "wire.up"; selector = Any; count = Nth 5; action = Corrupt } -> ()
  | _ -> Alcotest.fail "wire.up:corrupt#5 misparsed");
  (match parse_ok ~sites:wire "wire.down:stall=0.4#2" with
  | { site = "wire.down"; count = Nth 2; action = Stall s; _ } ->
    check floats "wire stall seconds" 0.4 s
  | _ -> Alcotest.fail "wire.down:stall=0.4#2 misparsed");
  let rejected ?(sites = compute) spec =
    match Resil.Fault_plan.parse_spec ~sites spec with
    | Ok _ -> Alcotest.failf "spec %S wrongly accepted" spec
    | Error _ -> ()
  in
  rejected "no-colon";
  rejected "runner.run:frobnicate";
  rejected "runner.run:crash#0";
  rejected "runner.run:crash#x";
  rejected ":crash";
  rejected "runner.run:stall=abc";
  (* a site nothing calls could never fire: reject it rather than run a
     vacuous chaos pass *)
  rejected "memo.store:corrupt";
  rejected "farm.send:crash";
  rejected "runer.run:crash";
  (* frames carry no ident, so a wire selector could never match *)
  rejected ~sites:wire "wire.down:crash@mcf";
  rejected ~sites:wire "wire.up:stall=x";
  rejected ~sites:wire "wire.down:crash#0";
  (* the proxy's retired grammar *)
  rejected ~sites:wire "down:drop#2";
  rejected ~sites:wire "up:corrupt-len";
  rejected ~sites:wire "wire.down:drop#2";
  (* each harness accepts only the family it exercises *)
  rejected "wire.down:crash#1";
  rejected ~sites:wire "runner.run:crash"

(* Every trigger a spec can express prints as a spec that parses back to
   it: any site, Any/Substring selectors (Substring on compute sites
   only), every action and both count forms. *)
let prop_spec_roundtrip =
  let open Resil.Fault_plan in
  let open QCheck.Gen in
  let gen =
    let* site = oneofl (compute @ wire) in
    let* selector =
      if List.mem site wire then return Any
      else
        oneof
          [ return Any;
            map
              (fun s -> Substring s)
              (string_size ~gen:(oneofl [ 'a'; 'm'; 'z'; '0'; '/'; '_'; '.' ])
                 (int_range 1 8)) ]
    in
    let* count =
      oneof
        [ map (fun n -> Nth n) (int_range 1 99);
          map (fun n -> From n) (int_range 1 99) ]
    in
    let* action =
      oneof
        [ return Throw;
          return Corrupt;
          return Truncate;
          map (fun k -> Stall (Float.of_int k /. 100.)) (int_range 0 999) ]
    in
    return { site; selector; count; action }
  in
  QCheck.Test.make ~count:500 ~name:"parse_spec (trigger_to_string t) = Ok t"
    (QCheck.make ~print:trigger_to_string gen)
    (fun t -> parse_spec ~sites:(compute @ wire) (trigger_to_string t) = Ok t)

let test_fault_plan_firing () =
  let open Resil.Fault_plan in
  let plan =
    make
      [ { site = "runner.run"; selector = Substring "mcf"; count = Nth 2;
          action = Throw } ]
  in
  Resil.Log.clear ();
  arm plan;
  (* first hit of the matching ident: armed but not yet the 2nd hit *)
  hit ~ident:"fig7/mcf/0" "runner.run";
  (* non-matching idents never trip it *)
  for _ = 1 to 5 do
    hit ~ident:"fig7/namd/0" "runner.run"
  done;
  (* other sites keep their own counters *)
  hit ~ident:"fig7/mcf/0" "pool.job";
  check bool "second hit of the armed ident throws" true
    (match hit ~ident:"fig7/mcf/0" "runner.run" with
    | () -> false
    | exception Injected "runner.run" -> true
    | exception _ -> false);
  check int "per-ident counter" 2 (hits ~ident:"fig7/mcf/0" "runner.run");
  check int "sibling ident unaffected" 5 (hits ~ident:"fig7/namd/0" "runner.run");
  (match
     List.filter_map
       (function
         | Resil.Log.Fault_fired { site; ident; action } -> Some (site, ident, action)
         | _ -> None)
       (Resil.Log.events ())
   with
  | [ ("runner.run", "fig7/mcf/0", "crash") ] -> ()
  | l -> Alcotest.failf "log has %d Fault_fired events" (List.length l));
  disarm ();
  (* disarmed sites are inert no-ops *)
  hit ~ident:"fig7/mcf/0" "runner.run"

let test_mangle_deterministic () =
  let open Resil.Fault_plan in
  arm
    (make
       [ { site = "journal.write"; selector = Any; count = From 1;
           action = Corrupt } ]);
  let payload = "some checkpoint payload bytes" in
  let a = mangle ~ident:"k" "journal.write" payload in
  let b = mangle ~ident:"k" "journal.write" payload in
  check bool "corruption changes the payload" true (a <> payload);
  check Alcotest.string "corruption is a pure function of the input" a b;
  check Alcotest.string "other sites pass through" payload
    (mangle ~ident:"k" "journal.read" payload);
  disarm ();
  check Alcotest.string "disarmed mangle is identity" payload
    (mangle ~ident:"k" "journal.write" payload)

(* Seeded random plans draw only from their harness's sites, so every
   trigger they arm can fire; wire plans are all [Nth], so a retrying
   client always converges. *)
let test_random_plan_sites () =
  let open Resil.Fault_plan in
  for seed = 0 to 19 do
    List.iter
      (fun tr ->
        if not (List.mem tr.site compute) then
          Alcotest.failf "random plan (seed %d) targets unregistered site %s"
            seed tr.site)
      (triggers (random ~seed ()));
    List.iter
      (fun tr ->
        match tr with
        | { site = "wire.down"; selector = Any; count = Nth _; _ } -> ()
        | _ ->
          Alcotest.failf "wire plan (seed %d) has trigger %s" seed
            (trigger_to_string tr))
      (triggers (random_wire ~seed))
  done

(* ---------------- Supervise ---------------- *)

let seq_policy = Resil.Supervise.default_policy

let test_supervise_ok_and_crash () =
  let pool = Exec.Pool.sequential in
  (match Resil.Supervise.run pool seq_policy ~ident:"ok" (fun () -> 41 + 1) with
  | Ok v -> check int "value" 42 v
  | Error e -> Alcotest.failf "unexpected %s" (Resil.Supervise.error_to_string e));
  match
    Resil.Supervise.run pool seq_policy ~ident:"boom" (fun () -> failwith "boom")
  with
  | Error (Resil.Supervise.Crashed (Failure msg)) when msg = "boom" -> ()
  | Ok _ -> Alcotest.fail "crash not surfaced"
  | Error e -> Alcotest.failf "wrong taxonomy: %s" (Resil.Supervise.error_to_string e)

let test_supervise_retry_schedule () =
  let pool = Exec.Pool.sequential in
  let policy = { seq_policy with Resil.Supervise.retries = 3; seed = 11 } in
  let attempts = ref 0 in
  let flaky () =
    incr attempts;
    if !attempts <= 2 then failwith "transient" else 99
  in
  Resil.Log.clear ();
  (match Resil.Supervise.run pool policy ~ident:"flaky" flaky with
  | Ok v -> check int "recovers after transients" 99 v
  | Error e -> Alcotest.failf "unexpected %s" (Resil.Supervise.error_to_string e));
  check int "three attempts" 3 !attempts;
  let retries =
    List.filter_map
      (function
        | Resil.Log.Retry { attempt; delay; _ } -> Some (attempt, delay)
        | _ -> None)
      (Resil.Log.events ())
  in
  let expected k =
    Resil.Backoff.delay ~seed:11 ~ident:"flaky" ~attempt:k
  in
  (match retries with
  | [ (1, d0); (2, d1) ] ->
    check floats "retry 1 sleeps the seeded backoff" (expected 0) d0;
    check floats "retry 2 sleeps the seeded backoff" (expected 1) d1
  | l -> Alcotest.failf "expected 2 retry events, got %d" (List.length l));
  (* exhausting the budget reports Gave_up with the last exception *)
  match
    Resil.Supervise.run pool
      { policy with Resil.Supervise.retries = 1 }
      ~ident:"hopeless"
      (fun () -> failwith "always")
  with
  | Error (Resil.Supervise.Gave_up (Failure msg)) when msg = "always" -> ()
  | Ok _ -> Alcotest.fail "hopeless job succeeded?"
  | Error e -> Alcotest.failf "wrong taxonomy: %s" (Resil.Supervise.error_to_string e)

let test_supervise_timeout_both_pools () =
  let policy =
    { seq_policy with Resil.Supervise.deadline = Some 0.02; retries = 5 }
  in
  let attempts = ref 0 in
  let slow () =
    incr attempts;
    Unix.sleepf 0.08;
    7
  in
  (* Sequential pool: the thunk runs inline, so the timeout must be
     classified post hoc from the recorded stamps. *)
  (match Resil.Supervise.run Exec.Pool.sequential policy ~ident:"slow" slow with
  | Error (Resil.Supervise.Timeout d) -> check floats "deadline reported" 0.02 d
  | Ok _ -> Alcotest.fail "sequential: timeout missed"
  | Error e -> Alcotest.failf "wrong taxonomy: %s" (Resil.Supervise.error_to_string e));
  check int "timeouts are not retried" 1 !attempts;
  (* Pooled: the watchdog abandons the attempt mid-flight. *)
  let pool = Exec.Pool.create ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Exec.Pool.shutdown pool)
    (fun () ->
      match Resil.Supervise.run pool policy ~ident:"slow2" slow with
      | Error (Resil.Supervise.Timeout _) -> ()
      | Ok _ -> Alcotest.fail "pooled: timeout missed"
      | Error e ->
        Alcotest.failf "wrong taxonomy: %s" (Resil.Supervise.error_to_string e))

(* ---------------- Journal ---------------- *)

let with_temp_journal f =
  let path = Filename.temp_file "crisp_test" ".journal" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; path ^ ".bad"; path ^ ".tmp" ])
    (fun () -> f path)

let test_journal_roundtrip () =
  with_temp_journal @@ fun path ->
  let j = Resil.Journal.load ~path ~signature:"sig-v1" in
  check int "starts empty" 0 (Resil.Journal.size j);
  Resil.Journal.record j ~key:"fig4/mcf/0" ~payload:"\x00binary\npayload\xff";
  Resil.Journal.record j ~key:"fig4/namd/0" ~payload:"second";
  Resil.Journal.record j ~key:"fig4/mcf/0" ~payload:"replaced";
  check int "replace keeps one entry per key" 2 (Resil.Journal.size j);
  (* a fresh load (a "new process") sees the validated payloads *)
  let j2 = Resil.Journal.load ~path ~signature:"sig-v1" in
  check (Alcotest.option Alcotest.string) "binary-safe payload"
    (Some "replaced")
    (Resil.Journal.find j2 "fig4/mcf/0");
  check (Alcotest.option Alcotest.string) "second entry" (Some "second")
    (Resil.Journal.find j2 "fig4/namd/0");
  check int "nothing quarantined" 0 (Resil.Journal.quarantined j2);
  (* keys are whitespace-sanitized, not trusted *)
  Resil.Journal.record j2 ~key:"has space" ~payload:"x";
  check (Alcotest.option Alcotest.string) "sanitized key" (Some "x")
    (Resil.Journal.find j2 "has_space")

let test_journal_signature_mismatch () =
  with_temp_journal @@ fun path ->
  let j = Resil.Journal.load ~path ~signature:"eval=100" in
  Resil.Journal.record j ~key:"k" ~payload:"v";
  Resil.Log.clear ();
  let stale = Resil.Journal.load ~path ~signature:"eval=200" in
  check int "stale journal yields nothing" 0 (Resil.Journal.size stale);
  check int "whole file quarantined" 1 (Resil.Journal.quarantined stale);
  check bool "original moved to .bad" true (Sys.file_exists (path ^ ".bad"));
  check bool "quarantine logged" true
    (List.exists
       (function Resil.Log.Quarantined _ -> true | _ -> false)
       (Resil.Log.events ()))

let test_journal_corrupt_entry_quarantined () =
  with_temp_journal @@ fun path ->
  let j = Resil.Journal.load ~path ~signature:"s" in
  Resil.Journal.record j ~key:"good" ~payload:"intact";
  Resil.Journal.record j ~key:"bad" ~payload:"to-be-damaged";
  (* flip one payload byte of the "bad" entry on disk *)
  let lines =
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []
  in
  let damaged =
    List.map
      (fun line ->
        if String.length line > 4 && String.sub line 0 4 = "bad " then begin
          let b = Bytes.of_string line in
          let last = Bytes.length b - 1 in
          Bytes.set b last (if Bytes.get b last = '0' then '1' else '0');
          Bytes.to_string b
        end
        else line)
      lines
  in
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) damaged;
  close_out oc;
  Resil.Log.clear ();
  let j2 = Resil.Journal.load ~path ~signature:"s" in
  check (Alcotest.option Alcotest.string) "intact entry survives"
    (Some "intact") (Resil.Journal.find j2 "good");
  check (Alcotest.option Alcotest.string) "damaged entry dropped, never served"
    None (Resil.Journal.find j2 "bad");
  check int "one quarantine" 1 (Resil.Journal.quarantined j2);
  check bool "damaged line preserved in .bad" true
    (Sys.file_exists (path ^ ".bad"))

let test_journal_write_corruption_detected_on_load () =
  with_temp_journal @@ fun path ->
  Resil.Fault_plan.arm
    (Resil.Fault_plan.make
       [ { Resil.Fault_plan.site = "journal.write";
           selector = Resil.Fault_plan.Any;
           count = Resil.Fault_plan.Nth 1;
           action = Resil.Fault_plan.Corrupt } ]);
  let j = Resil.Journal.load ~path ~signature:"s" in
  Resil.Journal.record j ~key:"c" ~payload:"true payload";
  (* the writer process still serves the truth... *)
  check (Alcotest.option Alcotest.string) "writer serves the true payload"
    (Some "true payload") (Resil.Journal.find j "c");
  Resil.Fault_plan.disarm ();
  (* ...and the corruption written to disk fails its checksum on load *)
  let j2 = Resil.Journal.load ~path ~signature:"s" in
  check (Alcotest.option Alcotest.string) "corrupt checkpoint never trusted"
    None (Resil.Journal.find j2 "c");
  check int "quarantined on load" 1 (Resil.Journal.quarantined j2)

let test_journal_read_crash_quarantined () =
  with_temp_journal @@ fun path ->
  let j = Resil.Journal.load ~path ~signature:"s" in
  Resil.Journal.record j ~key:"good" ~payload:"intact";
  Resil.Journal.record j ~key:"lost" ~payload:"unreadable";
  Resil.Fault_plan.arm
    (Resil.Fault_plan.make
       [ { Resil.Fault_plan.site = "journal.read";
           selector = Resil.Fault_plan.Substring "lost";
           count = Resil.Fault_plan.Nth 1;
           action = Resil.Fault_plan.Throw } ]);
  let j2 = Resil.Journal.load ~path ~signature:"s" in
  Resil.Fault_plan.disarm ();
  check (Alcotest.option Alcotest.string) "other entries survive" (Some "intact")
    (Resil.Journal.find j2 "good");
  check (Alcotest.option Alcotest.string) "crashed entry dropped" None
    (Resil.Journal.find j2 "lost");
  check int "quarantined on load" 1 (Resil.Journal.quarantined j2)

(* Several named journals in one process (the farm daemon's layout):
   distinct files, no cross-talk, names sanitised to safe slugs. *)
let test_journal_named_in_dir () =
  let dir = Filename.temp_file "crisp_test" ".dir" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      let cells = Resil.Journal.in_dir ~dir ~name:"cells" ~signature:"cells-v1" in
      let server = Resil.Journal.in_dir ~dir ~name:"server" ~signature:"server-v1" in
      Resil.Journal.record cells ~key:"cell/a" ~payload:"1.5";
      Resil.Journal.record server ~key:"requests_served" ~payload:"7";
      check bool "distinct files" true
        (Resil.Journal.path cells <> Resil.Journal.path server);
      check (Alcotest.option Alcotest.string) "no cross-talk" None
        (Resil.Journal.find cells "requests_served");
      (* fresh loads see their own journal only *)
      let cells2 = Resil.Journal.in_dir ~dir ~name:"cells" ~signature:"cells-v1" in
      let server2 = Resil.Journal.in_dir ~dir ~name:"server" ~signature:"server-v1" in
      check (Alcotest.option Alcotest.string) "cells survive" (Some "1.5")
        (Resil.Journal.find cells2 "cell/a");
      check (Alcotest.option Alcotest.string) "server state survives" (Some "7")
        (Resil.Journal.find server2 "requests_served");
      (* hostile names become filesystem-safe slugs inside dir *)
      let weird = Resil.Journal.in_dir ~dir ~name:"../esc ape" ~signature:"w" in
      check bool "sanitised path stays in dir" true
        (Filename.dirname (Resil.Journal.path weird) = dir);
      match Resil.Journal.in_dir ~dir ~name:"" ~signature:"w" with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "empty journal name accepted")

(* Two instances accidentally opened on the same path append whole lines
   (no clobbering); a fresh load sees every entry, last line per key
   winning. *)
let test_journal_same_path_two_instances () =
  with_temp_journal @@ fun path ->
  let j1 = Resil.Journal.load ~path ~signature:"s" in
  let j2 = Resil.Journal.load ~path ~signature:"s" in
  Resil.Journal.record j1 ~key:"a" ~payload:"from-j1";
  Resil.Journal.record j2 ~key:"b" ~payload:"from-j2";
  Resil.Journal.record j1 ~key:"shared" ~payload:"old";
  Resil.Journal.record j2 ~key:"shared" ~payload:"new";
  let fresh = Resil.Journal.load ~path ~signature:"s" in
  check int "all keys survive interleaved writers" 3 (Resil.Journal.size fresh);
  check int "nothing quarantined" 0 (Resil.Journal.quarantined fresh);
  check (Alcotest.option Alcotest.string) "j1 entry kept" (Some "from-j1")
    (Resil.Journal.find fresh "a");
  check (Alcotest.option Alcotest.string) "j2 entry kept" (Some "from-j2")
    (Resil.Journal.find fresh "b");
  check (Alcotest.option Alcotest.string) "last line wins" (Some "new")
    (Resil.Journal.find fresh "shared")

(* ---------------- Determinism across worker counts ---------------- *)

(* A synthetic supervised grid under a seeded random fault plan: results
   (incl. the error taxonomy) and the retry schedule must be identical
   at 1, 2 and 8 workers, because fault counters are keyed per cell
   ident and backoff is a pure function of (seed, ident, attempt). *)
let run_synthetic_grid ~workers ~seed =
  let pool =
    if workers <= 1 then Exec.Pool.sequential else Exec.Pool.create ~workers ()
  in
  Fun.protect
    ~finally:(fun () ->
      Resil.Fault_plan.disarm ();
      if workers > 1 then Exec.Pool.shutdown pool)
    (fun () ->
      Resil.Log.clear ();
      Resil.Fault_plan.arm (Resil.Fault_plan.random ~seed ~stall:0.002 ());
      let policy =
        { Resil.Supervise.default_policy with Resil.Supervise.retries = 2; seed }
      in
      let idents =
        List.concat_map
          (fun i ->
            List.map (fun j -> Printf.sprintf "grid/app%d/%d" i j) [ 0; 1; 2 ])
          [ 0; 1; 2; 3 ]
      in
      let handles =
        List.map
          (fun ident ->
            ( ident,
              Resil.Supervise.spawn pool policy ~ident (fun () ->
                  Hashtbl.hash ident land 0xffff) ))
          idents
      in
      let results =
        List.map
          (fun (ident, h) ->
            let r =
              match Resil.Supervise.join h with
              | Ok v -> Printf.sprintf "ok:%d" v
              | Error e -> "error:" ^ Resil.Supervise.error_to_string e
            in
            (ident, r))
          handles
      in
      let retries =
        List.map
          (fun (id, evs) ->
            ( id,
              List.filter_map
                (function
                  | Resil.Log.Retry { attempt; delay; _ } -> Some (attempt, delay)
                  | _ -> None)
                evs ))
          (Resil.Log.by_ident ())
      in
      (results, retries))

let test_synthetic_grid_determinism () =
  let prop seed =
    let reference = run_synthetic_grid ~workers:1 ~seed in
    List.for_all
      (fun workers -> run_synthetic_grid ~workers ~seed = reference)
      [ 2; 8 ]
  in
  let t =
    QCheck.Test.make ~count:8
      ~name:"same seed+plan => same verdicts and retry schedule at 1/2/8 workers"
      QCheck.small_nat prop
  in
  QCheck_alcotest.to_alcotest t

(* ---------------- Figure-level determinism under faults ---------------- *)

let tiny = { Experiments.eval_instrs = 4_000; train_instrs = 3_000 }

let fig4_under_faults ~jobs =
  let pool = Exec.Pool.of_jobs jobs in
  Fun.protect
    ~finally:(fun () ->
      Resil.Fault_plan.disarm ();
      Exec.Pool.shutdown pool;
      Runner.clear_cache ())
    (fun () ->
      Runner.clear_cache ();
      Resil.Log.clear ();
      Resil.Fault_plan.arm
        (Resil.Fault_plan.make
           [ parse_ok "runner.run:crash+1@mcf"; parse_ok "pool.job:crash#1@namd" ]);
      let ctx =
        { Experiments.default with
          Experiments.sizes = tiny;
          pool;
          policy =
            { Resil.Supervise.default_policy with Resil.Supervise.retries = 1; seed = 3 } }
      in
      let out = Resil.Capture.stdout (fun () -> ignore (Experiments.fig4 ctx)) in
      let degraded =
        List.filter_map
          (function
            | Resil.Log.Degraded { ident; error } -> Some (ident, error)
            | _ -> None)
          (Resil.Log.events ())
        |> List.sort compare
      in
      (out, degraded))

let test_fig4_identical_across_jobs_under_faults () =
  let ref_out, ref_degraded = fig4_under_faults ~jobs:1 in
  check bool "the mcf cell degraded" true
    (List.exists (fun (id, _) -> id = "fig4/mcf/0") ref_degraded);
  (* the namd cell's pool.job crash is retried once (Nth 1) and recovers *)
  check bool "the namd cell recovered by retry" true
    (not (List.exists (fun (id, _) -> id = "fig4/namd/0") ref_degraded));
  List.iter
    (fun jobs ->
      let out, degraded = fig4_under_faults ~jobs in
      check Alcotest.string
        (Printf.sprintf "figure text identical at %d jobs" jobs)
        ref_out out;
      check bool
        (Printf.sprintf "same degraded cells at %d jobs" jobs)
        true
        (degraded = ref_degraded))
    [ 2 ]

(* ---------------- Journal + grid: resume recomputes only missing ---------------- *)

let test_grid_resume_from_journal () =
  with_temp_journal @@ fun path ->
  let ctx = { Experiments.default with Experiments.sizes = tiny } in
  let journaled () =
    { ctx with
      Experiments.journal = Some (Resil.Journal.load ~path ~signature:"fig4-test") }
  in
  Runner.clear_cache ();
  Resil.Log.clear ();
  let clean = Resil.Capture.stdout (fun () -> ignore (Experiments.fig4 ctx)) in
  (* First journaled run: mcf crashes (no retries), everything else is
     checkpointed. *)
  Runner.clear_cache ();
  Resil.Log.clear ();
  Resil.Fault_plan.arm
    (Resil.Fault_plan.make [ parse_ok "runner.run:crash#1@mcf" ]);
  let faulted =
    Resil.Capture.stdout (fun () -> ignore (Experiments.fig4 (journaled ())))
  in
  check bool "faulted output differs (mcf degraded)" true (faulted <> clean);
  (* Resume: the Nth=1 crash is consumed, so the one missing cell
     recomputes cleanly; everything else restores from the journal. *)
  Runner.clear_cache ();
  Resil.Log.clear ();
  let resumed =
    Resil.Capture.stdout (fun () -> ignore (Experiments.fig4 (journaled ())))
  in
  Resil.Fault_plan.disarm ();
  check Alcotest.string "resumed run matches the clean figure byte-for-byte"
    clean resumed;
  let _, _, degraded, _, restored = Resil.Log.counts () in
  check int "no degradation on resume" 0 degraded;
  check int "all but the crashed cell restored" 15 restored

(* ---------------- Cell store ---------------- *)

let journal_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go n =
        match input_line ic with _ -> go (n + 1) | exception End_of_file -> n
      in
      go 0)

let count_events p = List.length (List.filter p (Resil.Log.events ()))
let is_degraded = function Resil.Log.Degraded _ -> true | _ -> false
let is_quarantined = function Resil.Log.Quarantined _ -> true | _ -> false

let with_workers n f =
  let pool = Exec.Pool.create ~workers:n () in
  Fun.protect ~finally:(fun () -> Exec.Pool.shutdown pool) (fun () -> f pool)

let outcome = Alcotest.(result (list (float 0.)) string)

let test_store_settles_once () =
  with_temp_journal @@ fun path ->
  with_workers 2 @@ fun pool ->
  let journal = Resil.Journal.load ~path ~signature:"store" in
  let store = Cell_store.create ~journal pool Resil.Supervise.default_policy in
  let runs = Atomic.make 0 in
  let thunk () =
    Atomic.incr runs;
    Thread.delay 0.05;
    [ 1.5; -0.; Float.infinity ]
  in
  let results = Array.make 8 (Error "never awaited") in
  let threads =
    List.init 8 (fun i ->
        Thread.create
          (fun () ->
            let _, cell = Cell_store.acquire store ~ident:"one" ~arity:3 thunk in
            results.(i) <- Cell_store.await cell)
          ())
  in
  List.iter Thread.join threads;
  check int "the thunk ran once" 1 (Atomic.get runs);
  Array.iter
    (check outcome "every thread sees the value" (Ok [ 1.5; -0.; Float.infinity ]))
    results;
  check int "one checkpoint line after the header" 2 (journal_lines path);
  check (Alcotest.option Alcotest.string) "hex-float payload"
    (Some "0x1.8p+0 -0x0p+0 infinity")
    (Resil.Journal.find journal "one");
  let m = Cell_store.memo_stats store in
  check int "one acquire computed" 1 m.Exec.Memo.misses;
  check int "seven acquires joined it" 7 (m.Exec.Memo.hits + m.Exec.Memo.dedups)

let test_store_failure_evicts () =
  with_temp_journal @@ fun path ->
  with_workers 2 @@ fun pool ->
  let journal = Resil.Journal.load ~path ~signature:"store" in
  let store = Cell_store.create ~journal pool Resil.Supervise.default_policy in
  let runs = Atomic.make 0 in
  let thunk () = if Atomic.fetch_and_add runs 1 = 0 then failwith "boom" else [ 2. ] in
  let source, cell = Cell_store.acquire store ~ident:"flaky" ~arity:1 thunk in
  check bool "first acquire computes" true (source = Cell_store.Computed);
  let awaiters =
    List.init 4 (fun _ -> Thread.create (fun () -> ignore (Cell_store.await cell)) ())
  in
  List.iter Thread.join awaiters;
  check bool "the cell failed" true (Result.is_error (Cell_store.await cell));
  check int "Degraded logged once" 1 (count_events is_degraded);
  check (Alcotest.option Alcotest.string) "a failure is never journalled" None
    (Resil.Journal.find journal "flaky");
  let source, cell = Cell_store.acquire store ~ident:"flaky" ~arity:1 thunk in
  check bool "evicted: the next acquire recomputes" true (source = Cell_store.Computed);
  check outcome "recomputed value" (Ok [ 2. ]) (Cell_store.await cell);
  check int "the thunk ran twice" 2 (Atomic.get runs)

let test_store_sequential_settles_at_acquire () =
  with_temp_journal @@ fun path ->
  let journal = Resil.Journal.load ~path ~signature:"store" in
  Resil.Journal.record journal ~key:"foreign" ~payload:"\x84\x95\xa6\xbe";
  let store =
    Cell_store.create ~journal Exec.Pool.sequential Resil.Supervise.default_policy
  in
  let _ = Cell_store.acquire store ~ident:"eager" ~arity:1 (fun () -> [ 3. ]) in
  check (Alcotest.option Alcotest.string) "checkpointed before any await"
    (Some "0x1.8p+1")
    (Resil.Journal.find journal "eager");
  let source, cell =
    Cell_store.acquire store ~ident:"foreign" ~arity:1 (fun () -> [ 4. ])
  in
  check bool "an undecodable payload is recomputed" true (source = Cell_store.Computed);
  check outcome "recomputed value" (Ok [ 4. ]) (Cell_store.await cell);
  check int "and quarantined" 1 (count_events is_quarantined)

(* A checkpoint write that fails for a real reason (here: the journal's
   directory is gone) degrades the checkpoint, never the cell. *)
let test_checkpoint_write_failure_keeps_cells () =
  let ctx = { Experiments.default with Experiments.sizes = tiny } in
  let clean = Resil.Capture.stdout (fun () -> Experiments.run ctx "fig4") in
  let dir = Filename.temp_file "crisp_test" ".dir" in
  Sys.remove dir;
  let journal =
    Resil.Journal.in_dir ~dir ~name:"cells" ~signature:(Experiments.journal_signature ctx)
  in
  Sys.remove (Resil.Journal.path journal);
  Sys.rmdir dir;
  Resil.Log.clear ();
  let out =
    Resil.Capture.stdout (fun () ->
        Experiments.run { ctx with Experiments.journal = Some journal } "fig4")
  in
  check Alcotest.string "figure identical to a no-journal run" clean out;
  check int "nothing degraded" 0 (count_events is_degraded);
  check int "one quarantined checkpoint per cell"
    (List.length Grid.fig4.Grid.names)
    (count_events is_quarantined)

(* A journal from before the payload format was pinned (Marshal
   payloads under the old signature) is quarantined whole at load and
   never misparsed: every cell is recomputed. *)
let test_old_format_journal_quarantined () =
  with_temp_journal @@ fun path ->
  let ctx = { Experiments.default with Experiments.sizes = tiny } in
  let clean = Resil.Capture.stdout (fun () -> ignore (Experiments.fig4 ctx)) in
  let old =
    Resil.Journal.load ~path ~signature:"crisp experiments eval=4000 train=3000"
  in
  List.iter
    (fun name ->
      Resil.Journal.record old ~key:(Printf.sprintf "fig4/%s/0" name)
        ~payload:(Marshal.to_string 42.0 []))
    Grid.fig4.Grid.names;
  Resil.Log.clear ();
  let journal = Resil.Journal.load ~path ~signature:(Experiments.journal_signature ctx) in
  check int "quarantined whole at load" 1 (Resil.Journal.quarantined journal);
  check int "no entry survives" 0 (Resil.Journal.size journal);
  let out =
    Resil.Capture.stdout (fun () ->
        ignore (Experiments.fig4 { ctx with Experiments.journal = Some journal }))
  in
  check Alcotest.string "figure byte-identical" clean out;
  let _, _, degraded, _, restored = Resil.Log.counts () in
  check int "nothing degraded" 0 degraded;
  check int "nothing restored: every cell recomputed" 0 restored;
  check int "every cell checkpointed afresh"
    (List.length Grid.fig4.Grid.names)
    (Resil.Journal.size journal)

let () =
  Alcotest.run "resil"
    [ ( "clock+backoff",
        [ Alcotest.test_case "clock-monotone" `Quick (isolated test_clock_monotone);
          Alcotest.test_case "backoff-deterministic" `Quick
            (isolated test_backoff_deterministic) ] );
      ( "fault_plan",
        [ Alcotest.test_case "parse-spec" `Quick (isolated test_parse_spec);
          Alcotest.test_case "firing" `Quick (isolated test_fault_plan_firing);
          Alcotest.test_case "mangle-deterministic" `Quick
            (isolated test_mangle_deterministic);
          Alcotest.test_case "random-plan-sites" `Quick
            (isolated test_random_plan_sites);
          QCheck_alcotest.to_alcotest prop_spec_roundtrip ] );
      ( "supervise",
        [ Alcotest.test_case "ok-and-crash" `Quick
            (isolated test_supervise_ok_and_crash);
          Alcotest.test_case "retry-schedule" `Quick
            (isolated test_supervise_retry_schedule);
          Alcotest.test_case "timeout-both-pools" `Slow
            (isolated test_supervise_timeout_both_pools) ] );
      ( "journal",
        [ Alcotest.test_case "roundtrip" `Quick (isolated test_journal_roundtrip);
          Alcotest.test_case "signature-mismatch" `Quick
            (isolated test_journal_signature_mismatch);
          Alcotest.test_case "corrupt-entry" `Quick
            (isolated test_journal_corrupt_entry_quarantined);
          Alcotest.test_case "write-corruption-detected" `Quick
            (isolated test_journal_write_corruption_detected_on_load);
          Alcotest.test_case "read-crash-quarantined" `Quick
            (isolated test_journal_read_crash_quarantined);
          Alcotest.test_case "named-journals-in-dir" `Quick
            (isolated test_journal_named_in_dir);
          Alcotest.test_case "same-path-two-instances" `Quick
            (isolated test_journal_same_path_two_instances) ] );
      ( "determinism",
        [ test_synthetic_grid_determinism ();
          Alcotest.test_case "fig4-under-faults-1-vs-2-jobs" `Slow
            (isolated test_fig4_identical_across_jobs_under_faults) ] );
      ( "resume",
        [ Alcotest.test_case "grid-resume-from-journal" `Slow
            (isolated test_grid_resume_from_journal);
          Alcotest.test_case "checkpoint-write-failure-keeps-cells" `Slow
            (isolated test_checkpoint_write_failure_keeps_cells);
          Alcotest.test_case "old-format-journal-quarantined" `Slow
            (isolated test_old_format_journal_quarantined) ] );
      ( "cell_store",
        [ Alcotest.test_case "eight-awaiters-settle-once" `Quick
            (isolated test_store_settles_once);
          Alcotest.test_case "failure-degrades-once-and-evicts" `Quick
            (isolated test_store_failure_evicts);
          Alcotest.test_case "sequential-settles-at-acquire" `Quick
            (isolated test_store_sequential_settles_at_acquire) ] ) ]
