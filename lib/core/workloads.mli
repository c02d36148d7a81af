(** The background Processes of the paper's evaluation (section 4).

    The idle Process is the literal [[true] whileTrue], compiled to a jump
    loop that neither looks up messages nor allocates memory — the minimum
    possible interference.  The busy Process is modelled on the "sweep
    hand" background Process: message sends, object allocation, and
    contention for the display. *)

(** Fork [count] idle/busy Processes; they run forever at background
    priority on whatever processors are free. *)
val spawn_idle : Vm.t -> int -> Oop.t list

val spawn_busy : Vm.t -> int -> Oop.t list
