(* The method-lookup cache.

   "Most Smalltalk implementations rely heavily on software method-lookup
   caches to achieve acceptable performance" — more than 10% of bytecodes
   need a lookup.  MS first serialized one shared cache with a two-level
   locking scheme, found the contention made the system "much too slow",
   and replicated the cache per processor instead (paper, section 3.2).

   Both variants are provided.  [Replicated] is a plain per-processor
   direct-mapped table (with a small extra indirection cost charged by the
   interpreter); [Shared_locked] is one table whose every probe passes
   through a read lock on the shared timeline, reproducing the contention
   the paper observed.  Caches are flushed at every scavenge (entries hold
   oops into new space) and when a method is (re)installed. *)

type mode =
  | Replicated
  | Shared_locked of Spinlock.t

let cache_size = 512  (* entries; power of two *)

type table = {
  sels : Oop.t array;
  clss : Oop.t array;
  meths : Oop.t array;
}

type t = {
  mode : mode;
  table : table;             (* per-interpreter, or the shared one *)
  owner : int;               (* owning vp when replicated; -1 = shared *)
  mutable sanitizer : Sanitizer.t option;
  mutable hits : int;
  mutable misses : int;
}

let make_table () = {
  sels = Array.make cache_size Oop.sentinel;
  clss = Array.make cache_size Oop.sentinel;
  meths = Array.make cache_size Oop.sentinel;
}

let create_replicated ?(owner = -1) ?sanitizer () =
  { mode = Replicated; table = make_table (); owner; sanitizer;
    hits = 0; misses = 0 }

(* All interpreters share [table] and [lock]; per-interpreter [t] values
   keep their own statistics. *)
let create_shared ?sanitizer ~lock ~table () =
  { mode = Shared_locked lock; table; owner = -1; sanitizer;
    hits = 0; misses = 0 }

(* A replicated cache belongs to one interpreter.  [flush] is exempt: the
   scavenger and method installation flush every cache cross-processor by
   design (stop-the-world, or the install broadcast). *)
let check_owner t ~vp ~now =
  match t.sanitizer, t.mode with
  | Some san, Replicated ->
      Sanitizer.check_owner san ~resource:"method cache" ~owner:t.owner ~vp
        ~now
  | _ -> ()

let slot sel cls = (sel lxor (cls * 0x9e3779b1)) land (cache_size - 1)

let flush_table tbl =
  Array.fill tbl.sels 0 cache_size Oop.sentinel;
  Array.fill tbl.clss 0 cache_size Oop.sentinel;
  Array.fill tbl.meths 0 cache_size Oop.sentinel

let flush t = flush_table t.table

(* Probe; returns the cached method and accumulates the lock time for the
   shared variant into the caller's clock via [now]. *)
let probe ?(vp = -1) t ~now ~sel ~cls =
  check_owner t ~vp ~now;
  let i = slot sel cls in
  let tbl = t.table in
  let read () =
    if Oop.equal tbl.sels.(i) sel && Oop.equal tbl.clss.(i) cls then begin
      t.hits <- t.hits + 1;
      Some tbl.meths.(i)
    end
    else begin
      t.misses <- t.misses + 1;
      None
    end
  in
  match t.mode with
  | Replicated -> (now, read ())
  | Shared_locked lock -> Spinlock.critical ~vp lock ~now ~op_cycles:4 read

let fill ?(vp = -1) t ~now ~sel ~cls ~meth =
  check_owner t ~vp ~now;
  let i = slot sel cls in
  let tbl = t.table in
  let write () =
    tbl.sels.(i) <- sel;
    tbl.clss.(i) <- cls;
    tbl.meths.(i) <- meth
  in
  match t.mode with
  | Replicated ->
      write ();
      now
  | Shared_locked lock ->
      let now, () = Spinlock.critical ~vp lock ~now ~op_cycles:6 write in
      now

let hits t = t.hits
let misses t = t.misses
