type params = {
  l1i : Cache.params;
  l1d : Cache.params;
  llc : Cache.params;
  l1i_latency : int;
  l1d_latency : int;
  llc_latency : int;
  dram : Dram.params;
  mshrs : int;
  enable_bop : bool;
  enable_stream : bool;
}

let line_bytes = 64

let skylake =
  { l1i = { Cache.size_bytes = 32 * 1024; assoc = 8; line_bytes };
    l1d = { Cache.size_bytes = 32 * 1024; assoc = 8; line_bytes };
    llc = { Cache.size_bytes = 1024 * 1024; assoc = 20; line_bytes };
    l1i_latency = 3;
    l1d_latency = 4;
    llc_latency = 36;
    dram = Dram.ddr4_2400;
    mshrs = 16;
    enable_bop = true;
    enable_stream = true }

type level =
  | L1
  | Llc
  | Mem

(* Serving level as a small int, for the unboxed [load_raw]/[fetch_raw]
   interface: a timing result is packed as [(ready lsl 2) lor code]. *)
let code_l1 = 1
let code_llc = 2
let code_mem = 3

let level_of_code = function
  | 1 -> L1
  | 2 -> Llc
  | 3 -> Mem
  | c -> invalid_arg (Printf.sprintf "Memory_system.level_of_code: %d" c)

let inst_mshrs = 16

type t = {
  p : params;
  l1i : Cache.t;
  l1d : Cache.t;
  llc : Cache.t;
  dram : Dram.t;
  bop : Bop.t;
  stream : Stream_prefetcher.t;
  (* Flat MSHR file for demand-load misses, replacing the
     [line -> (ready, level)] Hashtbl.  A slot is live iff its ready
     cycle is still in the future; freeing is implicit, so there is no
     per-cycle purge and occupancy is an O(mshrs) scan. *)
  d_line : int array;
  d_ready : int array;
  d_level : int array;
  (* Instruction-fetch misses, same layout.  The old Hashtbl was never
     purged and grew with every line ever missed; the frontend keeps only
     a handful of fetches in flight, so a small fixed file suffices. *)
  i_line : int array;
  i_ready : int array;
  stream_buf : int array;  (* scratch for Stream_prefetcher.access_into *)
  mutable prefetches_issued : int;
  mutable tracer : Obs_tracer.t option;  (* observability sink, write-only *)
}

let create p =
  let stream = Stream_prefetcher.create () in
  { p;
    l1i = Cache.create p.l1i;
    l1d = Cache.create p.l1d;
    llc = Cache.create p.llc;
    dram = Dram.create p.dram;
    bop = Bop.create ();
    stream;
    d_line = Array.make p.mshrs (-1);
    d_ready = Array.make p.mshrs 0;
    d_level = Array.make p.mshrs 0;
    i_line = Array.make inst_mshrs (-1);
    i_ready = Array.make inst_mshrs 0;
    stream_buf = Array.make (Stream_prefetcher.degree stream) 0;
    prefetches_issued = 0;
    tracer = None }

let params t = t.p

let set_tracer t tracer = t.tracer <- tracer

let line_of addr = addr / line_bytes

(* MSHR-file scans.  At most one slot is ever live for a given line:
   inserts only happen after the merge scan found none. *)
let rec d_find_live t ~cycle ~line i =
  if i = Array.length t.d_ready then -1
  else if t.d_ready.(i) > cycle && t.d_line.(i) = line then i
  else d_find_live t ~cycle ~line (i + 1)

let rec d_first_free t ~cycle i =
  if i = Array.length t.d_ready then -1
  else if t.d_ready.(i) <= cycle then i
  else d_first_free t ~cycle (i + 1)

let rec d_live_count t ~cycle i acc =
  if i = Array.length t.d_ready then acc
  else d_live_count t ~cycle (i + 1) (if t.d_ready.(i) > cycle then acc + 1 else acc)

let outstanding_misses t ~cycle = d_live_count t ~cycle 0 0

let rec d_next_ready t ~cycle i acc =
  if i = Array.length t.d_ready then acc
  else
    let r = t.d_ready.(i) in
    d_next_ready t ~cycle (i + 1) (if r > cycle && r < acc then r else acc)

let next_fill t ~cycle = d_next_ready t ~cycle 0 max_int

(* Issue a prefetch fill for [line]: install in LLC (and L1D) and charge
   DRAM bandwidth when the line was not on chip. *)
let prefetch_line t ~cycle line =
  let addr = line * line_bytes in
  if not (Cache.probe t.l1d ~addr) then begin
    t.prefetches_issued <- t.prefetches_issued + 1;
    (match t.tracer with
    | Some tr -> Obs_tracer.on_prefetch tr ~cycle ~addr
    | None -> ());
    if not (Cache.probe t.llc ~addr) then begin
      ignore (Dram.request t.dram ~cycle ~addr);
      Cache.fill_prefetch t.llc ~addr
    end;
    Cache.fill_prefetch t.l1d ~addr;
    Bop.record_fill t.bop ~line
  end

(* Train the data prefetchers on an L1D miss (or the first demand hit on a
   prefetched line) and issue whatever they request. *)
let train_data_prefetchers t ~cycle ~addr =
  let line = line_of addr in
  if t.p.enable_bop then begin
    Bop.train t.bop ~line;
    let target = Bop.query_line t.bop ~line in
    if target >= 0 then prefetch_line t ~cycle target
  end;
  if t.p.enable_stream then begin
    let n = Stream_prefetcher.access_into t.stream ~line ~into:t.stream_buf in
    for k = 0 to n - 1 do
      prefetch_line t ~cycle t.stream_buf.(k)
    done
  end

let load_raw t ~cycle ~addr =
  let line = line_of addr in
  let merge = d_find_live t ~cycle ~line 0 in
  if merge >= 0 then
    (* Merge with the in-flight fill for this line. *)
    (t.d_ready.(merge) lsl 2) lor t.d_level.(merge)
  else if Cache.probe t.l1d ~addr then begin
    (match Cache.access_info t.l1d ~addr with
    | `Hit_prefetched -> train_data_prefetchers t ~cycle ~addr
    | `Hit | `Miss -> ());
    ((cycle + t.p.l1d_latency) lsl 2) lor code_l1
  end
  else begin
    let slot = d_first_free t ~cycle 0 in
    if slot < 0 then -1 (* MSHRs full: retry next cycle *)
    else begin
      ignore (Cache.access_info t.l1d ~addr);
      train_data_prefetchers t ~cycle ~addr;
      let hit_llc =
        match Cache.access_info t.llc ~addr with
        | `Hit | `Hit_prefetched -> true
        | `Miss -> false
      in
      let ready =
        if hit_llc then cycle + t.p.llc_latency
        else Dram.request t.dram ~cycle:(cycle + t.p.llc_latency) ~addr
      in
      let code = if hit_llc then code_llc else code_mem in
      (match t.tracer with
      | Some tr ->
        Obs_tracer.on_l1d_miss tr ~cycle ~addr
          ~level:(if hit_llc then `Llc else `Mem)
      | None -> ());
      t.d_line.(slot) <- line;
      t.d_ready.(slot) <- ready;
      t.d_level.(slot) <- code;
      Bop.record_fill t.bop ~line;
      (ready lsl 2) lor code
    end
  end

let load t ~cycle ~addr =
  match load_raw t ~cycle ~addr with
  | -1 -> `Mshr_full
  | packed -> `Done (packed lsr 2, level_of_code (packed land 3))

let store_commit t ~cycle ~addr =
  (* Write-allocate; the store buffer hides the fill latency. *)
  if not (Cache.probe t.l1d ~addr) then begin
    let llc = Cache.access_info t.llc ~addr in
    match t.tracer with
    | Some tr ->
      Obs_tracer.on_l1d_miss tr ~cycle ~addr
        ~level:(match llc with `Hit | `Hit_prefetched -> `Llc | `Miss -> `Mem)
    | None -> ()
  end;
  ignore (Cache.access_info t.l1d ~addr)

let rec i_find_live t ~cycle ~line i =
  if i = Array.length t.i_ready then -1
  else if t.i_ready.(i) > cycle && t.i_line.(i) = line then i
  else i_find_live t ~cycle ~line (i + 1)

(* Claim a slot for a new fetch miss: first implicitly-free one, or — if
   the frontend somehow has more misses in flight than slots — the one
   closest to completion (whose merge window we then lose, nothing else). *)
let rec i_claim t ~cycle i best =
  if i = Array.length t.i_ready then best
  else if t.i_ready.(i) <= cycle then i
  else i_claim t ~cycle (i + 1) (if t.i_ready.(i) < t.i_ready.(best) then i else best)

let fetch_raw t ~cycle ~addr =
  let line = line_of addr in
  let merge = i_find_live t ~cycle ~line 0 in
  if merge >= 0 then (t.i_ready.(merge) lsl 2) lor code_mem
  else if Cache.probe t.l1i ~addr then begin
    ignore (Cache.access_info t.l1i ~addr);
    ((cycle + t.p.l1i_latency) lsl 2) lor code_l1
  end
  else begin
    ignore (Cache.access_info t.l1i ~addr);
    let hit_llc =
      match Cache.access_info t.llc ~addr with
      | `Hit | `Hit_prefetched -> true
      | `Miss -> false
    in
    let ready =
      if hit_llc then cycle + t.p.llc_latency
      else Dram.request t.dram ~cycle:(cycle + t.p.llc_latency) ~addr
    in
    (match t.tracer with
    | Some tr ->
      Obs_tracer.on_l1i_miss tr ~cycle ~addr ~level:(if hit_llc then `Llc else `Mem)
    | None -> ());
    let slot = i_claim t ~cycle 0 0 in
    t.i_line.(slot) <- line;
    t.i_ready.(slot) <- ready;
    (ready lsl 2) lor (if hit_llc then code_llc else code_mem)
  end

let fetch t ~cycle ~addr =
  let packed = fetch_raw t ~cycle ~addr in
  (packed lsr 2, level_of_code (packed land 3))

let probe_inst t ~addr = Cache.probe t.l1i ~addr

let prefetch_inst t ~cycle ~addr =
  if not (Cache.probe t.l1i ~addr) then begin
    t.prefetches_issued <- t.prefetches_issued + 1;
    (match t.tracer with
    | Some tr -> Obs_tracer.on_prefetch tr ~cycle ~addr
    | None -> ());
    if not (Cache.probe t.llc ~addr) then begin
      ignore (Dram.request t.dram ~cycle ~addr);
      Cache.fill_prefetch t.llc ~addr
    end;
    Cache.fill_prefetch t.l1i ~addr
  end

let load_functional t ~addr =
  match Cache.access_info t.l1d ~addr with
  | `Hit -> L1
  | `Hit_prefetched ->
    train_data_prefetchers t ~cycle:0 ~addr;
    L1
  | `Miss ->
    train_data_prefetchers t ~cycle:0 ~addr;
    (match Cache.access_info t.llc ~addr with
    | `Hit | `Hit_prefetched -> Llc
    | `Miss ->
      Bop.record_fill t.bop ~line:(line_of addr);
      Mem)

let fetch_functional t ~addr =
  match Cache.access_info t.l1i ~addr with
  | `Hit | `Hit_prefetched -> L1
  | `Miss -> (
    match Cache.access_info t.llc ~addr with
    | `Hit | `Hit_prefetched -> Llc
    | `Miss -> Mem)

(* ------------------------------------------------------------------ *)
(* Warming touch mode: the fast-forward path of sampled simulation.
   Loads and fetches warm through the functional interface above; a
   store write-allocates here.  No MSHR occupancy, no DRAM timing, no
   tracer events.  Prefetch fills issued during warming charge
   [Dram.request] at cycle 0, which only perturbs stamps that [quiesce]
   clears before the next detail window. *)

let warm_store t ~addr =
  (* Write-allocate, as at retirement; no tracer, no timing. *)
  if not (Cache.probe t.l1d ~addr) then ignore (Cache.access_info t.llc ~addr);
  ignore (Cache.access_info t.l1d ~addr)

(* Absolute-cycle state: MSHR ready stamps (a slot is live iff its ready
   cycle is in the future) and the DRAM bank/bus stamps.  Everything else
   in the hierarchy is content- or LRU-state, valid under any time base. *)
let quiesce t =
  Array.fill t.d_line 0 (Array.length t.d_line) (-1);
  Array.fill t.d_ready 0 (Array.length t.d_ready) 0;
  Array.fill t.i_line 0 (Array.length t.i_line) (-1);
  Array.fill t.i_ready 0 (Array.length t.i_ready) 0;
  Dram.quiesce t.dram

type stats = {
  l1d_hits : int;
  l1d_misses : int;
  llc_hits : int;
  llc_misses : int;
  l1i_hits : int;
  l1i_misses : int;
  dram_requests : int;
  dram_row_hits : int;
  prefetches_issued : int;
  prefetch_hits_l1d : int;
  prefetch_hits_llc : int;
}

let map2_stats f a b =
  { l1d_hits = f a.l1d_hits b.l1d_hits;
    l1d_misses = f a.l1d_misses b.l1d_misses;
    llc_hits = f a.llc_hits b.llc_hits;
    llc_misses = f a.llc_misses b.llc_misses;
    l1i_hits = f a.l1i_hits b.l1i_hits;
    l1i_misses = f a.l1i_misses b.l1i_misses;
    dram_requests = f a.dram_requests b.dram_requests;
    dram_row_hits = f a.dram_row_hits b.dram_row_hits;
    prefetches_issued = f a.prefetches_issued b.prefetches_issued;
    prefetch_hits_l1d = f a.prefetch_hits_l1d b.prefetch_hits_l1d;
    prefetch_hits_llc = f a.prefetch_hits_llc b.prefetch_hits_llc }

let stats t =
  { l1d_hits = Cache.hits t.l1d;
    l1d_misses = Cache.misses t.l1d;
    llc_hits = Cache.hits t.llc;
    llc_misses = Cache.misses t.llc;
    l1i_hits = Cache.hits t.l1i;
    l1i_misses = Cache.misses t.l1i;
    dram_requests = Dram.requests t.dram;
    dram_row_hits = Dram.row_hits t.dram;
    prefetches_issued = t.prefetches_issued;
    prefetch_hits_l1d = Cache.prefetch_hits t.l1d;
    prefetch_hits_llc = Cache.prefetch_hits t.llc }
