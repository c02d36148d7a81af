(** Building class objects and installing compiled methods.

    Classes use a simplified metaclass model: every class is an instance
    of [Class] and carries two method dictionaries, one for its instances
    and one for itself.  Method dictionaries are pairs of parallel arrays
    scanned linearly — the lookup caches make the scan rare. *)

exception Error of string

(** {2 Method dictionaries} *)

(** Linear search for [selector]; [None] when absent. *)
val dict_find : Universe.t -> Oop.t -> Oop.t -> Oop.t option

val dict_selectors : Universe.t -> Oop.t -> Oop.t list

(** {2 Classes} *)

(** Compile [source] and install it on the given side of [cls]. *)
val add_method : Universe.t -> cls:Oop.t -> class_side:bool -> string -> Oop.t

(** Load a whole image-definition file: class declarations and method
    chunks, in order. *)
val load : Universe.t -> string -> unit
