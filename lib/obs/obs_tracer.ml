type stamp = {
  pc : int;
  fetch : int;
  dispatch : int;
  issue : int;
  complete : int;
  retire : int;
  critical : bool;
}

type t = {
  ring : Obs_ring.t;
  (* per-dyn stage timestamps, grown on demand; -1 = stage not reached *)
  mutable pc_of : int array;
  mutable fetch_c : int array;
  mutable dispatch_c : int array;
  mutable issue_c : int array;
  mutable complete_c : int array;
  mutable retire_c : int array;
  mutable crit : Bytes.t;
  mutable max_dyn : int;  (* highest dyn seen + 1 *)
  (* events recorded, indexed by Obs_event kind *)
  counts : int array;
  mutable prio_overrides : int;
  mutable retires_critical : int;
  (* histograms *)
  hist_rob : Obs_hist.t;
  hist_rs : Obs_hist.t;
  hist_rs_wait : Obs_hist.t;
  hist_lat_critical : Obs_hist.t;
  hist_lat_noncritical : Obs_hist.t;
}

let initial_dyns = 4096

(* How many recent events the exporters see. *)
let ring_capacity = 65536

let create () =
  { ring = Obs_ring.create ~capacity:ring_capacity;
    pc_of = Array.make initial_dyns (-1);
    fetch_c = Array.make initial_dyns (-1);
    dispatch_c = Array.make initial_dyns (-1);
    issue_c = Array.make initial_dyns (-1);
    complete_c = Array.make initial_dyns (-1);
    retire_c = Array.make initial_dyns (-1);
    crit = Bytes.make initial_dyns '\000';
    max_dyn = 0;
    counts = Array.make Obs_event.kinds 0;
    prio_overrides = 0;
    retires_critical = 0;
    hist_rob = Obs_hist.create ();
    hist_rs = Obs_hist.create ();
    hist_rs_wait = Obs_hist.create ();
    hist_lat_critical = Obs_hist.create ();
    hist_lat_noncritical = Obs_hist.create () }

let grow_int old n =
  let fresh = Array.make n (-1) in
  Array.blit old 0 fresh 0 (Array.length old);
  fresh

let ensure t dyn =
  let cap = Array.length t.fetch_c in
  if dyn >= cap then begin
    let n = max (cap * 2) (dyn + 1) in
    t.pc_of <- grow_int t.pc_of n;
    t.fetch_c <- grow_int t.fetch_c n;
    t.dispatch_c <- grow_int t.dispatch_c n;
    t.issue_c <- grow_int t.issue_c n;
    t.complete_c <- grow_int t.complete_c n;
    t.retire_c <- grow_int t.retire_c n;
    let crit = Bytes.make n '\000' in
    Bytes.blit t.crit 0 crit 0 (Bytes.length t.crit);
    t.crit <- crit
  end;
  if dyn >= t.max_dyn then t.max_dyn <- dyn + 1

let record t ~cycle ~kind ~a ~b =
  t.counts.(kind) <- t.counts.(kind) + 1;
  Obs_ring.record t.ring ~cycle ~kind ~a ~b

let on_fetch t ~cycle ~dyn ~pc =
  ensure t dyn;
  t.pc_of.(dyn) <- pc;
  t.fetch_c.(dyn) <- cycle;
  record t ~cycle ~kind:Obs_event.fetch ~a:dyn ~b:pc

let on_dispatch t ~cycle ~dyn ~rob ~critical =
  ensure t dyn;
  t.dispatch_c.(dyn) <- cycle;
  if critical then Bytes.set t.crit dyn '\001';
  record t ~cycle ~kind:Obs_event.dispatch ~a:dyn ~b:rob

let on_select t ~cycle ~dyn ~prio_override =
  if prio_override then t.prio_overrides <- t.prio_overrides + 1;
  record t ~cycle ~kind:Obs_event.select ~a:dyn ~b:(if prio_override then 1 else 0)

let on_issue t ~cycle ~dyn ~critical =
  ensure t dyn;
  t.issue_c.(dyn) <- cycle;
  if t.dispatch_c.(dyn) >= 0 then
    Obs_hist.add t.hist_rs_wait (cycle - t.dispatch_c.(dyn));
  record t ~cycle ~kind:Obs_event.issue ~a:dyn ~b:(if critical then 1 else 0)

let on_mshr_retry t ~cycle ~dyn =
  record t ~cycle ~kind:Obs_event.mshr_retry ~a:dyn ~b:0

let on_complete t ~cycle ~dyn =
  ensure t dyn;
  t.complete_c.(dyn) <- cycle;
  record t ~cycle ~kind:Obs_event.complete ~a:dyn ~b:0

let on_retire t ~cycle ~dyn ~critical =
  ensure t dyn;
  t.retire_c.(dyn) <- cycle;
  if critical then t.retires_critical <- t.retires_critical + 1;
  if t.issue_c.(dyn) >= 0 then begin
    let lat = cycle - t.issue_c.(dyn) in
    Obs_hist.add (if critical then t.hist_lat_critical else t.hist_lat_noncritical) lat
  end;
  record t ~cycle ~kind:Obs_event.retire ~a:dyn ~b:(if critical then 1 else 0)

let on_redirect t ~cycle ~dyn ~kind =
  let code =
    match kind with
    | `Mispredict -> Obs_event.redirect_mispredict
    | `Btb_miss -> Obs_event.redirect_btb_miss
    | `Ras_mispredict -> Obs_event.redirect_ras
  in
  record t ~cycle ~kind:code ~a:dyn ~b:0

let on_l1d_miss t ~cycle ~addr ~level =
  let code =
    match level with
    | `Llc -> Obs_event.l1d_miss_llc
    | `Mem -> Obs_event.l1d_miss_mem
  in
  record t ~cycle ~kind:code ~a:addr ~b:0

let on_l1i_miss t ~cycle ~addr ~level =
  record t ~cycle ~kind:Obs_event.l1i_miss ~a:addr
    ~b:(match level with `Llc -> 0 | `Mem -> 1)

let on_prefetch t ~cycle ~addr =
  record t ~cycle ~kind:Obs_event.prefetch ~a:addr ~b:0

let on_cycle t ~rob_occupancy ~rs_occupancy =
  Obs_hist.add t.hist_rob rob_occupancy;
  Obs_hist.add t.hist_rs rs_occupancy

let ring t = t.ring

let counters t =
  List.init Obs_event.kinds (fun k -> (Obs_event.name k, t.counts.(k)))
  @ [ ("cycles_sampled", Obs_hist.count t.hist_rob);
      ("events_dropped", Obs_ring.dropped t.ring);
      ("events_recorded", Obs_ring.recorded t.ring);
      ("prio_override", t.prio_overrides);
      ("retire_critical", t.retires_critical) ]
  |> List.sort compare

let counter t name =
  match List.assoc_opt name (counters t) with
  | Some v -> v
  | None -> 0

let histograms t =
  [ ("issue_to_retire_critical", t.hist_lat_critical);
    ("issue_to_retire_noncritical", t.hist_lat_noncritical);
    ("rob_occupancy", t.hist_rob);
    ("rs_occupancy", t.hist_rs);
    ("rs_wait", t.hist_rs_wait) ]

let num_dyns t = t.max_dyn

let retire_timeline t =
  let timeline = Array.make (Obs_hist.count t.hist_rob) 0 in
  for dyn = 0 to t.max_dyn - 1 do
    let c = t.retire_c.(dyn) in
    if c >= 0 then timeline.(c) <- timeline.(c) + 1
  done;
  timeline

let stamp t dyn =
  if dyn < 0 || dyn >= t.max_dyn || t.fetch_c.(dyn) < 0 then None
  else
    Some
      { pc = t.pc_of.(dyn);
        fetch = t.fetch_c.(dyn);
        dispatch = t.dispatch_c.(dyn);
        issue = t.issue_c.(dyn);
        complete = t.complete_c.(dyn);
        retire = t.retire_c.(dyn);
        critical = Bytes.get t.crit dyn <> '\000' }
