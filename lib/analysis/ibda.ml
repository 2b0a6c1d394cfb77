type config = {
  ist_entries : int;
  ist_assoc : int;
}

let ist_1k = { ist_entries = 1024; ist_assoc = 4 }
let ist_8k = { ist_entries = 8192; ist_assoc = 8 }
let ist_64k = { ist_entries = 65536; ist_assoc = 16 }
let ist_infinite = { ist_entries = 0; ist_assoc = 1 }

(* Delinquent load table entries, as in the paper. *)
let dlt_entries = 32

type result = {
  critical : Bytes.t;
  tagged_dynamic : int;
  tagged_static : int;
  ist_insertions : int;
  ist_evictions : int;
}

(* Set-associative IST of pcs with LRU replacement; entries = 0 means
   unbounded (backed by a plain hash table). *)
module Ist = struct
  type t = {
    bounded : bool;
    sets : int;
    assoc : int;
    tags : int array;
    lru : int array;
    unbounded : (int, unit) Hashtbl.t;
    mutable clock : int;
    mutable insertions : int;
    mutable evictions : int;
  }

  let create (cfg : config) =
    let bounded = cfg.ist_entries > 0 in
    let sets = if bounded then max 1 (cfg.ist_entries / cfg.ist_assoc) else 1 in
    { bounded;
      sets;
      assoc = cfg.ist_assoc;
      tags = Array.make (if bounded then sets * cfg.ist_assoc else 1) (-1);
      lru = Array.make (if bounded then sets * cfg.ist_assoc else 1) 0;
      unbounded = Hashtbl.create 1024;
      clock = 0;
      insertions = 0;
      evictions = 0 }

  let mem t pc =
    if not t.bounded then Hashtbl.mem t.unbounded pc
    else begin
      let base = pc mod t.sets * t.assoc in
      let rec go i =
        if i = t.assoc then false
        else if t.tags.(base + i) = pc then begin
          t.clock <- t.clock + 1;
          t.lru.(base + i) <- t.clock;
          true
        end
        else go (i + 1)
      in
      go 0
    end

  let insert t pc =
    if not t.bounded then begin
      if not (Hashtbl.mem t.unbounded pc) then begin
        Hashtbl.add t.unbounded pc ();
        t.insertions <- t.insertions + 1
      end
    end
    else begin
      let base = pc mod t.sets * t.assoc in
      let existing = ref (-1) in
      for i = 0 to t.assoc - 1 do
        if t.tags.(base + i) = pc then existing := base + i
      done;
      t.clock <- t.clock + 1;
      if !existing >= 0 then t.lru.(!existing) <- t.clock
      else begin
        let victim = ref base in
        for i = 1 to t.assoc - 1 do
          if t.lru.(base + i) < t.lru.(!victim) then victim := base + i
        done;
        if t.tags.(!victim) >= 0 then t.evictions <- t.evictions + 1;
        t.tags.(!victim) <- pc;
        t.lru.(!victim) <- t.clock;
        t.insertions <- t.insertions + 1
      end
    end
end

(* Delinquent load table: [entries] slots of (pc, miss count); a new
   LLC-missing pc replaces the slot with the lowest count. *)
module Dlt = struct
  type t = {
    pcs : int array;
    counts : int array;
  }

  let create entries = { pcs = Array.make entries (-1); counts = Array.make entries 0 }

  let mem t pc = Array.exists (fun p -> p = pc) t.pcs

  let record_miss t pc =
    let slot = ref (-1) in
    Array.iteri (fun i p -> if p = pc then slot := i) t.pcs;
    if !slot >= 0 then t.counts.(!slot) <- t.counts.(!slot) + 1
    else begin
      let victim = ref 0 in
      Array.iteri (fun i c -> if c < t.counts.(!victim) then victim := i) t.counts;
      (* Replace only a colder entry, so hot loads are sticky. *)
      if t.pcs.(!victim) = -1 || t.counts.(!victim) = 0 then begin
        t.pcs.(!victim) <- pc;
        t.counts.(!victim) <- 1
      end
      else t.counts.(!victim) <- t.counts.(!victim) - 1
    end
end

let analyze ?(mem_params = Memory_system.skylake) cfg (trace : Executor.t) =
  let n = Executor.length trace in
  let mem = Memory_system.create mem_params in
  let ist = Ist.create cfg in
  let dlt = Dlt.create dlt_entries in
  let critical = Bytes.make n '\000' in
  (* Register dependence table: architectural register -> pc of the most
     recent producer, exactly what the hardware RDT tracks. *)
  let rdt = Array.make Isa.num_regs (-1) in
  let tagged_dynamic = ref 0 in
  let tagged_static = Hashtbl.create 256 in
  for i = 0 to n - 1 do
    let pc = Executor.pc trace i in
    let d = Executor.decoded trace i in
    (* Online DLT training from the cache hierarchy. *)
    (match d.Program.op with
    | Isa.Load ->
      (match Memory_system.load_functional mem ~addr:(Executor.addr trace i) with
      | Memory_system.Mem -> Dlt.record_miss dlt pc
      | Memory_system.L1 | Memory_system.Llc -> ())
    | Isa.Store -> ignore (Memory_system.load_functional mem ~addr:(Executor.addr trace i))
    | _ -> ());
    let marked = Ist.mem ist pc || (d.Program.op = Isa.Load && Dlt.mem dlt pc) in
    if marked then begin
      Bytes.set critical i '\001';
      incr tagged_dynamic;
      if not (Hashtbl.mem tagged_static pc) then Hashtbl.add tagged_static pc ();
      (* One backward level per execution: insert the register producers.
         Dependencies through memory are invisible to the hardware. *)
      if d.Program.src1 >= 0 && rdt.(d.Program.src1) >= 0 then
        Ist.insert ist rdt.(d.Program.src1);
      if d.Program.src2 >= 0 && rdt.(d.Program.src2) >= 0 then
        Ist.insert ist rdt.(d.Program.src2)
    end;
    if d.Program.dst >= 0 then rdt.(d.Program.dst) <- pc
  done;
  { critical;
    tagged_dynamic = !tagged_dynamic;
    tagged_static = Hashtbl.length tagged_static;
    ist_insertions = ist.Ist.insertions;
    ist_evictions = ist.Ist.evictions }

let is_critical result i = Bytes.get result.critical i <> '\000'
